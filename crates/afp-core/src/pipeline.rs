//! The end-to-end automatic layout pipeline (paper Fig. 1).
//!
//! `schematic / netlist → structure recognition → multi-shape configuration →
//! floorplanning → OARSMT global routing → procedural layout completion`.
//!
//! The floorplanning stage is pluggable so that the same pipeline can be run
//! with the R-GCN + RL agent (the paper's method), the fast greedy
//! constructive placer, or any of the metaheuristic baselines — which is
//! exactly what the Table I / Table II harnesses need.

use std::time::Instant;

use afp_circuit::{recognition, Circuit, Schematic};
use afp_gnn::greedy_floorplan;
use afp_layout::{export, metrics, Floorplan, FloorplanMetrics};
use afp_metaheuristics::Baseline;
use afp_rl::FloorplanAgent;
use afp_route::{complete_layout, CompletedLayout, LayoutReport, ProceduralConfig};

/// The floorplanning engine used by the pipeline.
#[derive(Debug)]
pub enum FloorplanMethod {
    /// The paper's R-GCN + masked-PPO agent (zero-shot or fine-tuned).
    Agent(Box<FloorplanAgent>),
    /// The fast constraint-aware greedy constructive placer.
    Greedy,
    /// One of the metaheuristic baselines (SA, GA, PSO, RL-SA, sequence-pair
    /// RL), run with the given seed.
    Baseline(Baseline, u64),
}

/// The result of one pipeline run.
#[derive(Debug)]
pub struct PipelineResult {
    /// The circuit that was laid out.
    pub circuit: Circuit,
    /// The floorplan produced by the selected method.
    pub floorplan: Floorplan,
    /// Floorplan metrics (HPWL, dead space, area, aspect ratio).
    pub floorplan_metrics: FloorplanMetrics,
    /// Episode reward (paper Eq. 5) of the floorplan.
    pub floorplan_reward: f64,
    /// Wall-clock floorplanning time in seconds.
    pub floorplan_time_s: f64,
    /// The completed layout (global routing + procedural completion).
    pub layout: CompletedLayout,
    /// The Table II-style report row.
    pub report: LayoutReport,
}

impl PipelineResult {
    /// Renders the placed-and-routed layout as an SVG document (the artefact
    /// behind the paper's Fig. 7).
    pub fn to_svg(&self) -> String {
        let overlays: Vec<export::Overlay> = self
            .layout
            .routing
            .trees
            .iter()
            .flat_map(|tree| {
                tree.segments.iter().map(|s| export::Overlay {
                    points: vec![s.from, s.to],
                    color: "#d62728".to_string(),
                })
            })
            .collect();
        export::svg_floorplan(&self.circuit, &self.floorplan, &overlays)
    }

    /// Renders the floorplan as ASCII art.
    pub fn to_ascii(&self) -> String {
        export::ascii_floorplan(&self.floorplan)
    }
}

/// The end-to-end layout pipeline.
#[derive(Debug)]
pub struct LayoutPipeline {
    method: FloorplanMethod,
}

impl LayoutPipeline {
    /// Creates a pipeline around the R-GCN + RL agent.
    pub fn with_agent(agent: FloorplanAgent) -> Self {
        LayoutPipeline {
            method: FloorplanMethod::Agent(Box::new(agent)),
        }
    }

    /// Creates a pipeline around the greedy constructive placer.
    pub fn with_greedy() -> Self {
        LayoutPipeline {
            method: FloorplanMethod::Greedy,
        }
    }

    /// Creates a pipeline around one of the baselines.
    pub fn with_baseline(baseline: Baseline, seed: u64) -> Self {
        LayoutPipeline {
            method: FloorplanMethod::Baseline(baseline, seed),
        }
    }

    /// Structure recognition: groups the devices of a schematic into typed
    /// functional blocks (pipeline step 2 of Fig. 1).
    pub fn recognize(schematic: &Schematic) -> Circuit {
        recognition::recognize(schematic)
    }

    /// Runs only the floorplanning stage, returning the floorplan, its reward
    /// and the elapsed time.
    pub fn floorplan(&mut self, circuit: &Circuit) -> (Floorplan, f64, f64) {
        let started = Instant::now();
        let floorplan = match &mut self.method {
            FloorplanMethod::Agent(agent) => agent.solve(circuit).floorplan,
            FloorplanMethod::Greedy => greedy_floorplan(circuit),
            FloorplanMethod::Baseline(baseline, seed) => baseline.run(circuit, *seed).floorplan,
        };
        let elapsed = started.elapsed().as_secs_f64();
        let reward =
            metrics::episode_reward(circuit, &floorplan, metrics::hpwl_lower_bound(circuit));
        (floorplan, elapsed, reward)
    }

    /// Runs the full pipeline on a block-level circuit.
    pub fn run(&mut self, circuit: &Circuit) -> PipelineResult {
        let (floorplan, floorplan_time_s, floorplan_reward) = self.floorplan(circuit);
        let layout = complete_layout(circuit, &floorplan, &ProceduralConfig::default());
        let report = LayoutReport::from_layout(circuit, &layout, floorplan_time_s);
        PipelineResult {
            floorplan_metrics: metrics::metrics(circuit, &floorplan),
            circuit: circuit.clone(),
            floorplan,
            floorplan_reward,
            floorplan_time_s,
            layout,
            report,
        }
    }

    /// Runs the full pipeline starting from a device-level schematic
    /// (structure recognition included).
    pub fn run_from_schematic(&mut self, schematic: &Schematic) -> PipelineResult {
        let circuit = Self::recognize(schematic);
        self.run(&circuit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afp_circuit::generators;
    use afp_metaheuristics::SaConfig;
    use afp_rl::AgentConfig;

    #[test]
    fn greedy_pipeline_completes_a_layout() {
        let mut pipeline = LayoutPipeline::with_greedy();
        let result = pipeline.run(&generators::ota3());
        assert_eq!(result.floorplan.num_placed(), 3);
        assert!(result.layout.area_um2 > 0.0);
        assert!(result.report.template_time_s >= result.floorplan_time_s);
        assert!(result.to_svg().contains("<svg"));
        assert!(!result.to_ascii().is_empty());
    }

    #[test]
    fn agent_pipeline_completes_a_layout() {
        let agent = FloorplanAgent::new(AgentConfig::small());
        let mut pipeline = LayoutPipeline::with_agent(agent);
        let result = pipeline.run(&generators::ota3());
        assert_eq!(result.floorplan.num_placed(), 3);
        assert!(result.floorplan_reward.is_finite());
    }

    #[test]
    fn baseline_pipeline_completes_a_layout() {
        let mut pipeline =
            LayoutPipeline::with_baseline(Baseline::Sa(SaConfig::small()), 3);
        let result = pipeline.run(&generators::ota3());
        assert_eq!(result.floorplan.num_placed(), 3);
        assert!(result.layout.wirelength_um > 0.0);
    }

    #[test]
    fn pipeline_runs_from_a_schematic() {
        let mut pipeline = LayoutPipeline::with_greedy();
        let schematic = generators::ota8_schematic();
        let result = pipeline.run_from_schematic(&schematic);
        assert!(result.circuit.num_blocks() > 1);
        assert_eq!(result.floorplan.num_placed(), result.circuit.num_blocks());
    }
}
