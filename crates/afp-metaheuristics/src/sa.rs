//! Simulated annealing over sequence pairs — the workhorse baseline of analog
//! floorplanning (and the optimizer used by ALIGN [28], which the paper cites
//! as the state-of-the-art automatic layout generator it compares against).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use afp_circuit::Circuit;

use crate::common::{
    BaselineResult, Candidate, CostCache, MoveMix, Problem, RunControl, StopReason,
};

/// Simulated-annealing configuration.
///
/// # Examples
///
/// The locality-aware move mix biases sequence swaps toward adjacent
/// positions, a local refinement step (see `docs/TUNING.md`). A zero bias
/// reproduces the historical uniform walk bit-for-bit:
///
/// ```
/// use afp_circuit::generators;
/// use afp_metaheuristics::{simulated_annealing, SaConfig};
///
/// let circuit = generators::ota5();
/// let uniform = SaConfig { locality_bias: 0.0, ..SaConfig::small() };
/// let local = SaConfig { locality_bias: 0.8, ..SaConfig::small() };
/// let a = simulated_annealing(&circuit, &uniform);
/// let b = simulated_annealing(&circuit, &local);
/// // Both anneal the same budget; only the proposal distribution differs.
/// assert_eq!(a.evaluations, b.evaluations);
/// assert!(a.reward.is_finite() && b.reward.is_finite());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SaConfig {
    /// Total number of proposed moves.
    pub iterations: usize,
    /// Initial temperature (in cost units).
    pub initial_temperature: f64,
    /// Multiplicative cooling factor applied every `moves_per_temperature`.
    pub cooling: f64,
    /// Number of moves between temperature updates.
    pub moves_per_temperature: usize,
    /// RNG seed.
    pub seed: u64,
    /// Probability that a sequence-swap proposal exchanges adjacent positions
    /// instead of two uniform ones (see [`MoveMix`]). Adjacent swaps make
    /// the smallest sequence diff; `0.0` reproduces the historical uniform
    /// walk bit-for-bit.
    pub locality_bias: f64,
    /// Number of restarts: the move budget is split into `restarts + 1` equal
    /// segments, and at each segment boundary the chain teleports back to the
    /// incumbent best and the temperature is reheated (see
    /// [`reheat_factor`](SaConfig::reheat_factor)). Restart boundaries draw
    /// nothing from the RNG, so `0` — the default everywhere — replays
    /// historical move streams bit-for-bit, and a restarted run stays
    /// deterministic for its seed.
    pub restarts: usize,
    /// On restart the temperature is raised to at least
    /// `initial_temperature * reheat_factor` (it is never lowered: a segment
    /// still hotter than the reheat target keeps its temperature). Ignored
    /// when `restarts` is `0`.
    pub reheat_factor: f64,
}

impl SaConfig {
    /// A configuration small enough for unit tests.
    pub fn small() -> Self {
        SaConfig {
            iterations: 400,
            initial_temperature: 1.0,
            cooling: 0.95,
            moves_per_temperature: 20,
            seed: 0,
            locality_bias: 0.0,
            restarts: 0,
            reheat_factor: 0.5,
        }
    }

    /// The configuration used by the Table I reproduction: enough moves for
    /// circuits up to 19 blocks while keeping SA runtimes in the ~1 s range
    /// the paper reports. The locality-aware move mix is on (half the swaps
    /// are adjacent): local refinement steps without giving up the
    /// long-range moves a cooling schedule still needs early on.
    pub fn table1() -> Self {
        SaConfig {
            iterations: 4_000,
            initial_temperature: 2.0,
            cooling: 0.97,
            moves_per_temperature: 50,
            seed: 0,
            locality_bias: 0.5,
            restarts: 0,
            reheat_factor: 0.5,
        }
    }
}

impl Default for SaConfig {
    fn default() -> Self {
        SaConfig::small()
    }
}

/// Runs simulated annealing on a circuit and returns the best floorplan found.
pub fn simulated_annealing(circuit: &Circuit, config: &SaConfig) -> BaselineResult {
    let problem = Problem::new(circuit);
    let mut cache = CostCache::new(&problem);
    simulated_annealing_on(&problem, config, None, &mut cache, &RunControl::unbounded())
}

/// Runs simulated annealing on an existing problem under a [`RunControl`].
///
/// * `initial` — an optional starting candidate (the RL-SA hybrid's policy
///   output); `None` starts from a random candidate drawn from the seeded
///   RNG.
/// * `cache` — the caller's [`CostCache`], so runs can reuse evaluation
///   buffers.
/// * `control` — polled with the move counter as the tick: the evaluation
///   budget is compared exactly on every move (a budget stop always lands on
///   the same evaluation count), while the wall clock and the cancel token
///   are only checked every [`RunControl::stride`] moves.
///
/// Polling draws nothing from the RNG, so a run the control never interrupts
/// is bit-identical to one under [`RunControl::unbounded`]. An interrupted
/// run returns the best candidate found so far with the interrupting
/// [`StopReason`] in [`BaselineResult::stop`].
pub fn simulated_annealing_on(
    problem: &Problem,
    config: &SaConfig,
    initial: Option<Candidate>,
    cache: &mut CostCache,
    control: &RunControl,
) -> BaselineResult {
    let started = Instant::now();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mix = MoveMix::local(config.locality_bias);
    let mut current =
        initial.unwrap_or_else(|| Candidate::random(problem.num_blocks(), &mut rng));
    let mut current_cost = problem.cost_cached(&current, cache);
    let mut best = current.clone();
    let mut best_cost = current_cost;
    let mut temperature = config.initial_temperature;
    let mut evaluations = 1;
    let mut stop = StopReason::Completed;

    // Entry poll (tick 0): a pre-raised token, an expired deadline or an
    // already-exhausted budget stops before the first move.
    if let Some(reason) = control.poll(0, evaluations as u64) {
        return BaselineResult::from_candidate("SA", problem, &best, started, evaluations)
            .with_stop(reason);
    }

    // Restart boundaries split the budget into `restarts + 1` equal segments
    // (integer division leaves the remainder to the last segment). The check
    // below draws nothing from the RNG, so with `restarts: 0` this function
    // is instruction-for-instruction the historical annealing loop.
    let segments = config.restarts + 1;
    let mut next_boundary = 1usize;

    for step in 0..config.iterations {
        // Perturb in place and remember the inverse move: a rejected proposal
        // is reverted with two index swaps instead of cloning the candidate
        // on every iteration.
        let undo = current.perturb_with(&mix, &mut rng);
        let proposal_cost = problem.cost_cached(&current, cache);
        evaluations += 1;
        let delta = proposal_cost - current_cost;
        let accept = delta <= 0.0 || rng.gen::<f64>() < (-delta / temperature.max(1e-9)).exp();
        if accept {
            current_cost = proposal_cost;
            if current_cost < best_cost {
                best.clone_from(&current);
                best_cost = current_cost;
            }
        } else {
            current.undo(undo);
        }
        if (step + 1) % config.moves_per_temperature == 0 {
            temperature *= config.cooling;
        }
        if next_boundary <= config.restarts
            && step + 1 == next_boundary * config.iterations / segments
        {
            // Restart: resume the walk from the incumbent best (abandoning a
            // chain that wandered into a penalty basin) with enough heat to
            // escape the best's own neighborhood.
            current.clone_from(&best);
            current_cost = best_cost;
            temperature = temperature.max(config.initial_temperature * config.reheat_factor);
            next_boundary += 1;
        }
        // Control poll, after the move has fully settled: nothing here
        // touches the RNG, so an uninterrupted run replays the historical
        // stream bit-for-bit.
        if let Some(reason) = control.poll((step + 1) as u64, evaluations as u64) {
            stop = reason;
            break;
        }
    }
    BaselineResult::from_candidate("SA", problem, &best, started, evaluations).with_stop(stop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use afp_circuit::generators;

    #[test]
    fn sa_improves_over_random_start() {
        let circuit = generators::ota5();
        let problem = Problem::new(&circuit);
        let mut rng = StdRng::seed_from_u64(7);
        let random = Candidate::random(problem.num_blocks(), &mut rng);
        let random_cost = problem.cost(&random);
        let result = simulated_annealing(&circuit, &SaConfig::small());
        assert!(
            -result.reward <= random_cost,
            "SA ({}) should not be worse than a random candidate ({})",
            -result.reward,
            random_cost
        );
        assert_eq!(result.floorplan.num_placed(), circuit.num_blocks());
        assert!(result.runtime_s >= 0.0);
        assert_eq!(result.algorithm, "SA");
    }

    #[test]
    fn sa_is_deterministic_for_a_seed() {
        let circuit = generators::ota3();
        let cfg = SaConfig {
            iterations: 150,
            ..SaConfig::small()
        };
        let a = simulated_annealing(&circuit, &cfg);
        let b = simulated_annealing(&circuit, &cfg);
        assert_eq!(a.reward, b.reward);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn locality_biased_walk_is_deterministic_and_places_everything() {
        let circuit = generators::ota8();
        let cfg = SaConfig {
            iterations: 300,
            locality_bias: 0.9,
            ..SaConfig::small()
        };
        let a = simulated_annealing(&circuit, &cfg);
        let b = simulated_annealing(&circuit, &cfg);
        assert_eq!(a.reward, b.reward);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.floorplan.num_placed(), circuit.num_blocks());
    }

    #[test]
    fn zero_bias_reproduces_the_historical_uniform_walk() {
        // `sa_is_deterministic_for_a_seed` pins run-to-run stability; this
        // pins *cross-config* stability: a `locality_bias: 0.0` config is the
        // pre-locality SA, same RNG stream and all, so explicitly passing the
        // uniform mix must change nothing against the `small()` default.
        let circuit = generators::ota5();
        let base = SaConfig::small();
        assert_eq!(base.locality_bias, 0.0);
        let explicit = SaConfig {
            locality_bias: 0.0,
            ..base.clone()
        };
        let a = simulated_annealing(&circuit, &base);
        let b = simulated_annealing(&circuit, &explicit);
        assert_eq!(a.reward, b.reward);
        assert_eq!(a.floorplan, b.floorplan);
    }

    #[test]
    fn zero_restarts_replays_the_historical_stream_bit_for_bit() {
        // The restart fields must be inert at their defaults: a config that
        // spells out `restarts: 0` (with any reheat factor) is the historical
        // annealing loop, same RNG stream, same trajectory, same floorplan.
        let circuit = generators::ota8();
        let base = SaConfig {
            iterations: 300,
            seed: 42,
            ..SaConfig::table1()
        };
        assert_eq!(base.restarts, 0);
        let explicit = SaConfig {
            restarts: 0,
            reheat_factor: 0.9,
            ..base.clone()
        };
        let a = simulated_annealing(&circuit, &base);
        let b = simulated_annealing(&circuit, &explicit);
        assert_eq!(a.reward, b.reward);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.floorplan, b.floorplan);
    }

    #[test]
    fn restarted_walk_is_deterministic_and_spends_the_same_budget() {
        // Restart boundaries draw nothing from the RNG: the proposal stream
        // is shared with the non-restarted run, only the accept states
        // diverge. Evaluations (and thus the move budget) must not change,
        // and the run must stay seed-deterministic.
        let circuit = generators::ota8();
        let plain = SaConfig {
            iterations: 400,
            seed: 9,
            ..SaConfig::table1()
        };
        let restarted = SaConfig {
            restarts: 3,
            reheat_factor: 0.5,
            ..plain.clone()
        };
        let a = simulated_annealing(&circuit, &restarted);
        let b = simulated_annealing(&circuit, &restarted);
        assert_eq!(a.reward, b.reward);
        assert_eq!(a.floorplan, b.floorplan);
        let base = simulated_annealing(&circuit, &plain);
        assert_eq!(a.evaluations, base.evaluations, "restarts must not change the budget");
        assert_eq!(a.floorplan.num_placed(), circuit.num_blocks());
    }

    #[test]
    fn generous_control_is_bit_identical_to_no_control() {
        // The tentpole determinism contract at unit scale: deadline an hour
        // out, budget far above the move count, non-default stride — the
        // control must never influence the trajectory.
        let circuit = generators::ota8();
        let problem = Problem::new(&circuit);
        let cfg = SaConfig {
            iterations: 300,
            seed: 77,
            ..SaConfig::table1()
        };
        let mut plain_cache = CostCache::new(&problem);
        let unbounded = RunControl::unbounded();
        let plain = simulated_annealing_on(&problem, &cfg, None, &mut plain_cache, &unbounded);
        let control = RunControl::unbounded()
            .with_deadline(std::time::Duration::from_secs(3600))
            .with_budget(1_000_000)
            .with_stride(16);
        let mut cache = CostCache::new(&problem);
        let controlled = simulated_annealing_on(&problem, &cfg, None, &mut cache, &control);
        assert_eq!(controlled.reward, plain.reward);
        assert_eq!(controlled.evaluations, plain.evaluations);
        assert_eq!(controlled.floorplan, plain.floorplan);
        assert_eq!(controlled.stop, StopReason::Completed);
        assert_eq!(plain.stop, StopReason::Completed);
    }

    #[test]
    fn budget_stops_at_the_exact_evaluation_count() {
        let circuit = generators::ota5();
        let problem = Problem::new(&circuit);
        let cfg = SaConfig {
            iterations: 400,
            ..SaConfig::small()
        };
        let control = RunControl::unbounded().with_budget(57);
        let mut cache = CostCache::new(&problem);
        let result = simulated_annealing_on(&problem, &cfg, None, &mut cache, &control);
        assert_eq!(result.stop, StopReason::Budget);
        assert_eq!(result.evaluations, 57, "budget stops are exact");
        assert_eq!(result.floorplan.num_placed(), circuit.num_blocks());
        assert!(result.reward.is_finite(), "best-so-far must be a real result");
    }

    #[test]
    fn expired_deadline_returns_best_so_far_within_a_stride() {
        let circuit = generators::ota5();
        let problem = Problem::new(&circuit);
        let cfg = SaConfig {
            iterations: 10_000,
            ..SaConfig::small()
        };
        let control = RunControl::unbounded()
            .with_deadline(std::time::Duration::from_secs(0))
            .with_stride(32);
        let mut cache = CostCache::new(&problem);
        let result = simulated_annealing_on(&problem, &cfg, None, &mut cache, &control);
        assert_eq!(result.stop, StopReason::Deadline);
        // The entry poll fires at tick 0, before any move.
        assert_eq!(result.evaluations, 1);
        assert_eq!(result.floorplan.num_placed(), circuit.num_blocks());
    }

    #[test]
    fn cancellation_stops_the_walk_and_is_recorded() {
        let circuit = generators::ota5();
        let problem = Problem::new(&circuit);
        let cfg = SaConfig {
            iterations: 5_000,
            ..SaConfig::small()
        };
        let control = RunControl::unbounded().with_stride(8);
        control.cancel();
        let mut cache = CostCache::new(&problem);
        let result = simulated_annealing_on(&problem, &cfg, None, &mut cache, &control);
        assert_eq!(result.stop, StopReason::Cancelled);
        assert_eq!(result.evaluations, 1, "pre-cancelled runs stop at entry");
    }

    #[test]
    fn budgeted_prefix_matches_the_unbounded_runs_prefix() {
        // An interrupted run is the *prefix* of the uncontrolled run: same
        // seed, fewer moves. Re-running with iterations = budget - 1 (the
        // initial evaluation consumes one) must land on the same best.
        let circuit = generators::ota8();
        let problem = Problem::new(&circuit);
        let cfg = SaConfig {
            iterations: 400,
            seed: 5,
            ..SaConfig::small()
        };
        let control = RunControl::unbounded().with_budget(101);
        let mut cache = CostCache::new(&problem);
        let budgeted = simulated_annealing_on(&problem, &cfg, None, &mut cache, &control);
        assert_eq!(budgeted.stop, StopReason::Budget);
        assert_eq!(budgeted.evaluations, 101);
        let truncated_cfg = SaConfig {
            iterations: 100,
            ..cfg
        };
        let truncated = simulated_annealing(&circuit, &truncated_cfg);
        assert_eq!(budgeted.reward, truncated.reward);
        assert_eq!(budgeted.floorplan, truncated.floorplan);
    }

    #[test]
    fn initial_candidate_is_respected() {
        let circuit = generators::ota3();
        let problem = Problem::new(&circuit);
        let initial = Candidate::identity(problem.num_blocks(), problem.shape_sets());
        let cfg = SaConfig {
            iterations: 10,
            ..SaConfig::small()
        };
        let mut cache = CostCache::new(&problem);
        let result = simulated_annealing_on(
            &problem,
            &cfg,
            Some(initial.clone()),
            &mut cache,
            &RunControl::unbounded(),
        );
        // With almost no iterations the result cannot be worse than the
        // initial candidate.
        assert!(-result.reward <= problem.cost(&initial) + 1e-9);
    }
}
