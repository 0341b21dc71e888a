//! # afp-metaheuristics — baseline floorplanners
//!
//! The comparison baselines of the paper's Table I, all operating on the
//! sequence-pair topological model of `afp-layout`:
//!
//! * [`simulated_annealing`] — SA, the methodology used by state-of-the-art
//!   automatic layout generators such as ALIGN \[28\],
//! * [`genetic_algorithm`] — GA with order crossover,
//! * [`particle_swarm`] — PSO with random-key permutation encoding,
//! * [`rl_sa`] — the RL + SA hybrid of the predecessor work \[13\],
//! * [`sequence_pair_rl`] — the pure per-instance sequence-pair RL of \[13\].
//!
//! Every baseline applies congestion-aware device spacing by default
//! (paper §V-B) so that its floorplans are comparable with the routing-ready
//! floorplans of the R-GCN + RL method, and every baseline reports the same
//! [`BaselineResult`] (runtime, HPWL, dead space, reward) that Table I lists.
//!
//! All baselines evaluate candidates through [`Problem::cost_cached`], which
//! runs `afp-layout`'s cost pipeline (one full FAST-SP sweep → one grid
//! realization pass → one full HPWL/violation rescan) into reused buffers
//! behind a small cost memo — bit-identical to [`Problem::cost`]. The
//! population optimizers evaluate through an [`EvalPool`] — one
//! [`CostCache`] per worker, results bit-identical at any worker count; GA
//! and PSO score whole generations per call, SP-RL's one-candidate-at-a-time
//! recurrence uses the pool's serial entry point — while SA proposes moves
//! from a configurable mix ([`MoveMix`],
//! [`SaConfig::locality_bias`](SaConfig)). All thread pools are persistent
//! parked [`afp_par::WorkerPool`]s: spawned once per optimizer run, parked
//! between batches. See `ARCHITECTURE.md` at the repository root for the
//! evaluation stack and its determinism contract, and `docs/TUNING.md` for
//! how to choose worker counts, population sizes, the locality bias and SA
//! restarts.
//!
//! Every optimizer has exactly two entry points: the circuit-level
//! convenience above (`simulated_annealing(circuit, config)`, …) and one
//! problem-level `*_on` function ([`simulated_annealing_on`],
//! [`genetic_algorithm_on`], [`particle_swarm_on`], [`rl_sa_on`],
//! [`sequence_pair_rl_on`]) that takes a [`Problem`], a [`RunControl`] — a
//! wall-clock deadline, an evaluation budget and a cooperative
//! [`CancelToken`] — and whatever else that algorithm uses (SA's initial
//! candidate and [`CostCache`]). Every run reports *why* it stopped in
//! [`BaselineResult::stop`] ([`StopReason`]). Controls are polled at
//! deterministic strides and draw nothing from the RNG, so an uninterrupted
//! controlled run is bit-identical to an uncontrolled one.
//!
//! # Examples
//!
//! ```
//! use afp_circuit::generators;
//! use afp_metaheuristics::{simulated_annealing, SaConfig};
//!
//! let circuit = generators::ota3();
//! let result = simulated_annealing(&circuit, &SaConfig::small());
//! assert_eq!(result.floorplan.num_placed(), 3);
//! assert!(result.reward < 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod common;
mod ga;
mod pso;
mod rl_sa;
mod sa;
mod sp_rl;

pub use common::{
    BaselineResult, Candidate, CancelToken, ChainOutcome, CostCache, EvalPool, MoveMix,
    PerturbUndo, Problem, RunControl, StopReason,
};
pub use common::panic_payload_message;
pub use ga::{genetic_algorithm, genetic_algorithm_on, GaConfig};
pub use pso::{particle_swarm, particle_swarm_on, PsoConfig};
pub use rl_sa::{rl_sa, rl_sa_on, RlSaConfig};
pub use sa::{simulated_annealing, simulated_annealing_on, SaConfig};
pub use sp_rl::{sequence_pair_rl, sequence_pair_rl_on, SpRlConfig};

use afp_circuit::Circuit;

/// Convenience enum naming every baseline, used by the Table I harness.
#[derive(Debug, Clone, PartialEq)]
pub enum Baseline {
    /// Simulated annealing.
    Sa(SaConfig),
    /// Genetic algorithm.
    Ga(GaConfig),
    /// Particle swarm optimization.
    Pso(PsoConfig),
    /// RL + SA hybrid of \[13\].
    RlSa(RlSaConfig),
    /// Pure sequence-pair RL of \[13\].
    SpRl(SpRlConfig),
}

impl Baseline {
    /// All baselines with their unit-test-sized configurations.
    pub fn all_small() -> Vec<Baseline> {
        vec![
            Baseline::Sa(SaConfig::small()),
            Baseline::Ga(GaConfig::small()),
            Baseline::Pso(PsoConfig::small()),
            Baseline::RlSa(RlSaConfig::small()),
            Baseline::SpRl(SpRlConfig::small()),
        ]
    }

    /// All baselines with their Table I reproduction configurations.
    pub fn all_table1() -> Vec<Baseline> {
        vec![
            Baseline::Sa(SaConfig::table1()),
            Baseline::Ga(GaConfig::table1()),
            Baseline::Pso(PsoConfig::table1()),
            Baseline::RlSa(RlSaConfig::table1()),
            Baseline::SpRl(SpRlConfig::table1()),
        ]
    }

    /// Display name used in tables (matches the paper's column headers).
    pub fn name(&self) -> &'static str {
        match self {
            Baseline::Sa(_) => "SA",
            Baseline::Ga(_) => "GA",
            Baseline::Pso(_) => "PSO",
            Baseline::RlSa(_) => "RL-SA",
            Baseline::SpRl(_) => "RL (SP)",
        }
    }

    /// Runs the baseline on a circuit with a specific seed (the Table I
    /// harness repeats runs over several seeds to report interquartile means).
    pub fn run(&self, circuit: &Circuit, seed: u64) -> BaselineResult {
        self.run_controlled(circuit, seed, &RunControl::unbounded())
    }

    /// [`Baseline::run`] under a [`RunControl`].
    ///
    /// The [`Problem`] is built once and handed to the algorithm's `*_on`
    /// entry point, so deadlines, budgets and cancellation apply uniformly
    /// across algorithms. An uninterrupted run is bit-identical to
    /// [`Baseline::run`]. This is also the serve layer's entry point: a
    /// served answer is a pure function of its circuit, solver and seed.
    pub fn run_controlled(
        &self,
        circuit: &Circuit,
        seed: u64,
        control: &RunControl,
    ) -> BaselineResult {
        let problem = Problem::new(circuit);
        match self {
            Baseline::Sa(cfg) => {
                let cfg = SaConfig { seed, ..cfg.clone() };
                let mut cache = CostCache::new(&problem);
                simulated_annealing_on(&problem, &cfg, None, &mut cache, control)
            }
            Baseline::Ga(cfg) => {
                let cfg = GaConfig { seed, ..cfg.clone() };
                genetic_algorithm_on(&problem, &cfg, control)
            }
            Baseline::Pso(cfg) => {
                let cfg = PsoConfig { seed, ..cfg.clone() };
                particle_swarm_on(&problem, &cfg, control)
            }
            Baseline::RlSa(cfg) => {
                let mut cfg = cfg.clone();
                cfg.warmup.seed = seed;
                cfg.refinement.seed = seed.wrapping_add(1);
                rl_sa_on(&problem, &cfg, control)
            }
            Baseline::SpRl(cfg) => {
                let cfg = SpRlConfig { seed, ..cfg.clone() };
                sequence_pair_rl_on(&problem, &cfg, control).0
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use afp_circuit::generators;

    #[test]
    fn every_baseline_runs_on_a_small_circuit() {
        let circuit = generators::ota3();
        for baseline in Baseline::all_small() {
            let result = baseline.run(&circuit, 5);
            assert_eq!(
                result.floorplan.num_placed(),
                circuit.num_blocks(),
                "{} left blocks unplaced",
                baseline.name()
            );
            assert!(result.reward.is_finite(), "{}", baseline.name());
        }
    }

    #[test]
    fn names_match_table_one_columns() {
        let names: Vec<&str> = Baseline::all_small().iter().map(|b| b.name()).collect();
        assert_eq!(names, vec!["SA", "GA", "PSO", "RL-SA", "RL (SP)"]);
    }

    #[test]
    fn different_seeds_generally_differ() {
        let circuit = generators::ota5();
        let b = Baseline::Sa(SaConfig::small());
        let a = b.run(&circuit, 1);
        let c = b.run(&circuit, 2);
        // Not a strict requirement, but identical rewards for different seeds
        // on a 5-block circuit would indicate the seed is ignored.
        assert!(
            (a.reward - c.reward).abs() > 1e-12 || a.evaluations == c.evaluations
        );
    }
}
