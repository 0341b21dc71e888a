//! Reproduction of **Table I**: comparative analysis of the R-GCN + RL method
//! (zero-shot and fine-tuned) against SA, GA, PSO and the RL-SA / sequence-pair
//! RL predecessors, across the six evaluation circuits.
//!
//! For every (circuit, method, seed) combination the harness records the same
//! four metrics the paper reports — runtime, dead space, HPWL and reward — and
//! aggregates them as interquartile mean ± standard deviation.

use afp_circuit::generators::{self, BenchmarkCircuit};
use afp_circuit::NODE_FEATURE_DIM;
use afp_core::{format_table_one, MethodMeasurements, TableOneRow};
use afp_gnn::{pretrain, PretrainConfig, RgcnEncoder};
use afp_layout::metrics;
use afp_metaheuristics::Baseline;
use afp_rl::{train_with_encoder, AgentConfig, FloorplanAgent, TrainConfig};
use afp_tensor::copy_values;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::ExperimentScale;

/// Configuration of the Table I sweep.
#[derive(Debug, Clone)]
pub struct Table1Config {
    /// Number of repeated runs per (circuit, method).
    pub seeds: usize,
    /// Fine-tuning budgets (in episodes) for the R-GCN RL columns; `0` is the
    /// zero-shot column.
    pub fine_tune_budgets: Vec<usize>,
    /// R-GCN pre-training configuration.
    pub pretrain: PretrainConfig,
    /// Curriculum training configuration for the shared agent.
    pub train: TrainConfig,
    /// Baseline algorithms and their budgets.
    pub baselines: Vec<Baseline>,
    /// Circuits to evaluate.
    pub circuits: Vec<BenchmarkCircuit>,
}

impl Table1Config {
    /// A configuration that reproduces the table's structure in a couple of
    /// minutes on a laptop (used by the default binary invocation).
    pub fn quick() -> Self {
        Table1Config {
            seeds: 3,
            fine_tune_budgets: vec![0, 1, 8],
            pretrain: PretrainConfig {
                samples: 16,
                epochs: 4,
                ..PretrainConfig::small()
            },
            train: TrainConfig {
                episodes_per_circuit: 10,
                episodes_per_update: 5,
                ..TrainConfig::small()
            },
            // Full (Table I) baseline budgets: they are still fast in a
            // release build and give the runtime ordering the paper reports.
            baselines: Baseline::all_table1(),
            circuits: generators::evaluation_set(),
        }
    }

    /// The paper-scale configuration (hours of CPU time): 4096 training
    /// episodes per circuit, 0/1/100/1000-shot fine-tuning, Table I baseline
    /// budgets.
    pub fn paper() -> Self {
        Table1Config {
            seeds: 10,
            fine_tune_budgets: vec![0, 1, 100, 1000],
            pretrain: PretrainConfig::paper(),
            train: TrainConfig::paper(),
            baselines: Baseline::all_table1(),
            circuits: generators::evaluation_set(),
        }
    }

    /// A minimal configuration used by the unit tests (single circuit, one
    /// baseline, one seed).
    pub fn tiny() -> Self {
        Table1Config {
            seeds: 1,
            fine_tune_budgets: vec![0, 1],
            pretrain: PretrainConfig {
                samples: 4,
                epochs: 1,
                ..PretrainConfig::small()
            },
            train: TrainConfig {
                episodes_per_circuit: 2,
                episodes_per_update: 2,
                ..TrainConfig::small()
            },
            baselines: vec![Baseline::Sa(afp_metaheuristics::SaConfig {
                iterations: 60,
                ..afp_metaheuristics::SaConfig::small()
            })],
            circuits: vec![BenchmarkCircuit {
                circuit: generators::ota5(),
                seen_during_training: true,
            }],
        }
    }

    /// Builds the configuration for an [`ExperimentScale`].
    pub fn for_scale(scale: ExperimentScale) -> Self {
        match scale {
            ExperimentScale::Quick => Table1Config::quick(),
            ExperimentScale::Paper => Table1Config::paper(),
        }
    }
}

/// The output of the Table I reproduction.
#[derive(Debug)]
pub struct Table1Result {
    /// One row group per circuit, with one summary per method column.
    pub rows: Vec<TableOneRow>,
    /// Plain-text rendering in the paper's layout.
    pub rendered: String,
}

/// Clones an agent by copying its encoder and policy weights parameter by
/// parameter (the policy type is not `Clone` because it owns boxed layers),
/// overriding the configuration — typically to change the sampling seed
/// between repeated runs.
fn clone_agent_with_config(agent: &FloorplanAgent, config: AgentConfig) -> FloorplanAgent {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut encoder = RgcnEncoder::new(NODE_FEATURE_DIM, &mut rng);
    copy_values(&mut encoder.params_mut(), &agent.encoder().params())
        .expect("identical encoder architecture");
    let mut copy = FloorplanAgent::with_encoder(encoder, config);
    copy_values(&mut copy.policy_mut().params_mut(), &agent.policy().params())
        .expect("identical policy architecture");
    copy
}

/// Trains the shared agent used by all "R-GCN RL" columns: R-GCN pre-training
/// followed by curriculum PPO on the training set.
pub fn train_reference_agent(config: &Table1Config) -> FloorplanAgent {
    let pretrained = pretrain(&config.pretrain);
    let encoder = pretrained.model.into_encoder();
    let result = train_with_encoder(encoder, &generators::training_set(), &config.train);
    result.agent
}

/// Runs the full Table I sweep.
pub fn run(scale: ExperimentScale) -> Table1Result {
    run_with_config(&Table1Config::for_scale(scale))
}

/// Runs the sweep with an explicit configuration.
pub fn run_with_config(config: &Table1Config) -> Table1Result {
    let reference_agent = train_reference_agent(config);
    let mut rows = Vec::new();

    for benchmark in &config.circuits {
        // Paper §V-B: "No constraints are imposed on any circuit" for the
        // Table I comparison, so the evaluation copies are stripped of their
        // symmetry / alignment constraints (training keeps them).
        let mut circuit = benchmark.circuit.clone();
        circuit.constraints = afp_circuit::ConstraintSet::new();
        let circuit = &circuit;
        let mut methods: Vec<(String, afp_core::MethodSummary)> = Vec::new();

        // R-GCN RL columns: zero-shot and fine-tuned variants.
        for &budget in &config.fine_tune_budgets {
            let mut measurements = MethodMeasurements::new();
            for seed in 0..config.seeds {
                // Copy the reference agent's weights so each seed fine-tunes
                // an identical copy with different sampling.
                let mut cfg = reference_agent.config().clone();
                cfg.seed = seed as u64;
                let mut agent = clone_agent_with_config(&reference_agent, cfg);
                let started = std::time::Instant::now();
                if budget > 0 {
                    agent.fine_tune(circuit, budget);
                }
                let solve = agent.solve(circuit);
                let runtime = started.elapsed().as_secs_f64();
                measurements.push(
                    runtime,
                    solve.metrics.dead_space * 100.0,
                    solve.metrics.hpwl_um,
                    solve.reward,
                );
            }
            let label = if budget == 0 {
                "R-GCN RL 0-shot".to_string()
            } else {
                format!("R-GCN RL {budget}-shot")
            };
            methods.push((label, measurements.summarize()));
        }

        // Baseline columns.
        for baseline in &config.baselines {
            let mut measurements = MethodMeasurements::new();
            for seed in 0..config.seeds {
                let result = baseline.run(circuit, seed as u64);
                let m = metrics::metrics(circuit, &result.floorplan);
                measurements.push(
                    result.runtime_s,
                    m.dead_space * 100.0,
                    m.hpwl_um,
                    result.reward,
                );
            }
            methods.push((baseline.name().to_string(), measurements.summarize()));
        }

        rows.push(TableOneRow {
            circuit: circuit.name.clone(),
            num_structures: circuit.num_blocks(),
            unseen: !benchmark.seen_during_training,
            methods,
        });
    }

    let rendered = format_table_one(&rows);
    Table1Result { rows, rendered }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_sweep_produces_all_method_columns() {
        let result = run_with_config(&Table1Config::tiny());
        assert_eq!(result.rows.len(), 1);
        let row = &result.rows[0];
        assert_eq!(row.circuit, "OTA-1");
        assert_eq!(row.num_structures, 5);
        // 2 RL budgets + 1 baseline.
        assert_eq!(row.methods.len(), 3);
        assert!(row.methods.iter().any(|(n, _)| n == "R-GCN RL 0-shot"));
        assert!(row.methods.iter().any(|(n, _)| n == "SA"));
        for (name, summary) in &row.methods {
            assert!(summary.reward.iq_mean.is_finite(), "{name}");
            assert!(summary.runtime_s.iq_mean >= 0.0, "{name}");
        }
        assert!(result.rendered.contains("TABLE I"));
        assert!(result.rendered.contains("OTA-1"));
    }

    #[test]
    fn cloned_agent_solves_exactly_like_the_original() {
        let circuit = generators::ota3();
        let config = AgentConfig::small();
        // An encoder drawn at another seed and a fine-tuned policy: a fresh
        // agent at `config.seed` matches neither, so only the copy can.
        let mut rng = StdRng::seed_from_u64(99);
        let encoder = RgcnEncoder::new(NODE_FEATURE_DIM, &mut rng);
        let mut agent = FloorplanAgent::with_encoder(encoder, config.clone());
        agent.fine_tune(&circuit, 1);
        let fresh = FloorplanAgent::new(config.clone());
        assert_ne!(agent.policy().params()[0].value, fresh.policy().params()[0].value);

        let mut copy = clone_agent_with_config(&agent, config);
        let (a, b) = (agent.solve(&circuit), copy.solve(&circuit));
        assert_eq!(a.floorplan.placed(), b.floorplan.placed());
        assert_eq!(a.reward.to_bits(), b.reward.to_bits());
        assert_eq!(a.termination, b.termination);
    }

    #[test]
    fn configs_match_paper_protocol() {
        let paper = Table1Config::paper();
        assert_eq!(paper.fine_tune_budgets, vec![0, 1, 100, 1000]);
        assert_eq!(paper.circuits.len(), 6);
        assert_eq!(paper.train.episodes_per_circuit, 4096);
        let quick = Table1Config::quick();
        assert_eq!(quick.circuits.len(), 6);
        assert_eq!(quick.baselines.len(), 5);
    }
}
