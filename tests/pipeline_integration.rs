//! Integration tests spanning the whole workspace: circuit generation →
//! floorplanning (RL agent, greedy and baselines) → global routing →
//! procedural layout completion.

use analog_floorplan::circuit::{generators, recognition};
use analog_floorplan::core::LayoutPipeline;
use analog_floorplan::layout::constraints::count_violations;
use analog_floorplan::metaheuristics::{Baseline, SaConfig};
use analog_floorplan::rl::{AgentConfig, FloorplanAgent};

#[test]
fn greedy_pipeline_lays_out_every_evaluation_circuit() {
    for benchmark in generators::evaluation_set() {
        let circuit = benchmark.circuit;
        let mut pipeline = LayoutPipeline::with_greedy();
        let result = pipeline.run(&circuit);
        assert_eq!(
            result.floorplan.num_placed(),
            circuit.num_blocks(),
            "{}: not all blocks placed",
            circuit.name
        );
        assert!(result.layout.area_um2 > 0.0, "{}: empty layout", circuit.name);
        assert!(
            result.layout.routing.incomplete_nets() == 0,
            "{}: {} nets could not be routed",
            circuit.name,
            result.layout.routing.incomplete_nets()
        );
        assert!(
            result.floorplan_metrics.dead_space < 0.95,
            "{}: implausible dead space",
            circuit.name
        );
    }
}

#[test]
fn untrained_agent_produces_valid_floorplans_via_masking() {
    // Even an untrained policy must respect the positional masks: whatever it
    // places is overlap-free and constraint-consistent. On circuits without
    // positional constraints an episode can never dead-end, so it must also
    // always run to completion. (On heavily constrained circuits an untrained
    // policy may paint itself into a corner — that is exactly the −50 penalty
    // case of the paper — so completion is only asserted when it happened.)
    let mut agent = FloorplanAgent::new(AgentConfig::small());

    let unconstrained = generators::oscillator();
    let result = agent.solve(&unconstrained);
    assert_eq!(
        result.floorplan.num_placed(),
        unconstrained.num_blocks(),
        "unconstrained circuit must always complete"
    );

    for circuit in [generators::ota5(), generators::rs_latch()] {
        let result = agent.solve(&circuit);
        // Everything that was placed respects overlap rules by construction;
        // constraint violations may only stem from *missing* partners, never
        // from mis-placed ones.
        let placed = result.floorplan.num_placed();
        if placed == circuit.num_blocks() {
            assert_eq!(
                count_violations(&circuit, &result.floorplan),
                0,
                "{}: masked agent violated constraints",
                circuit.name
            );
        } else {
            assert!(
                result.termination == analog_floorplan::rl::Termination::DeadEnd,
                "{}: incomplete episode must be a dead end",
                circuit.name
            );
        }
    }
}

#[test]
fn baseline_and_agent_metrics_are_comparable_units() {
    // The same reward definition is used for every method, so values must be
    // on the same scale (negative, finite, not the violation penalty for
    // complete unconstrained floorplans).
    let circuit = generators::ota3();
    let mut sa_pipeline = LayoutPipeline::with_baseline(Baseline::Sa(SaConfig::small()), 1);
    let sa = sa_pipeline.run(&circuit);
    let mut agent_pipeline = LayoutPipeline::with_agent(FloorplanAgent::new(AgentConfig::small()));
    let agent = agent_pipeline.run(&circuit);
    for (name, reward) in [("SA", sa.floorplan_reward), ("agent", agent.floorplan_reward)] {
        assert!(reward.is_finite(), "{name} reward not finite");
        assert!(reward < 0.0, "{name} reward should be negative");
        assert!(reward > -50.0, "{name} tripped the violation penalty");
    }
}

#[test]
fn recognition_feeds_the_pipeline_end_to_end() {
    let schematic = generators::ota8_schematic();
    let circuit = recognition::recognize(&schematic);
    assert!(circuit.num_blocks() >= 3);
    let mut pipeline = LayoutPipeline::with_greedy();
    let result = pipeline.run_from_schematic(&schematic);
    assert_eq!(result.circuit.num_blocks(), circuit.num_blocks());
    assert!(result.layout.wirelength_um > 0.0);
    // The SVG render of the routed layout is a valid standalone document.
    let svg = result.to_svg();
    assert!(svg.starts_with("<svg") && svg.trim_end().ends_with("</svg>"));
}

#[test]
fn congestion_spacing_makes_baseline_floorplans_larger() {
    use analog_floorplan::layout::sequence_pair::realize_floorplan;
    use analog_floorplan::layout::{Canvas, Floorplan, PackScratch};
    use analog_floorplan::metaheuristics::{Candidate, Problem};
    let circuit = generators::ota8();
    let problem = Problem::new(&circuit);
    let candidate = Candidate::identity(circuit.num_blocks(), problem.shape_sets());
    let area_with = problem.realize(&candidate).bounding_box().unwrap().area();
    // The same candidate realized from the raw, uninflated shapes.
    let raw: Vec<_> = problem
        .shape_sets()
        .iter()
        .zip(&candidate.shape_choice)
        .map(|(set, &k)| set.shape(k))
        .collect();
    let canvas = Canvas::for_circuit(&circuit);
    let mut without = Floorplan::new(canvas);
    realize_floorplan(
        &candidate.positive,
        &candidate.negative,
        &raw,
        &circuit,
        canvas,
        &mut PackScratch::new(),
        &mut without,
    );
    let area_without = without.bounding_box().unwrap().area();
    assert!(
        area_with > area_without,
        "congestion-aware spacing should enlarge the floorplan ({area_with} vs {area_without})"
    );
}
