//! Particle swarm optimization over sequence pairs.
//!
//! Permutations are handled with the classic random-key encoding: each
//! particle carries two continuous key vectors (one per sequence) plus a
//! continuous shape preference per block; sorting the keys yields the
//! permutations, so standard PSO velocity updates apply unchanged.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use afp_circuit::{Circuit, SHAPES_PER_BLOCK};

use crate::common::{
    candidate_is_feasible, BaselineResult, Candidate, EvalPool, Problem, RunControl, StopReason,
};

/// PSO configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PsoConfig {
    /// Number of particles.
    pub particles: usize,
    /// Number of iterations.
    pub iterations: usize,
    /// Inertia weight.
    pub inertia: f64,
    /// Cognitive (personal-best) coefficient.
    pub cognitive: f64,
    /// Social (global-best) coefficient.
    pub social: f64,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for swarm evaluation through the [`EvalPool`]
    /// (`0` = one per available hardware thread). Results are bit-identical
    /// at any worker count; see `docs/TUNING.md` for how to choose.
    pub workers: usize,
}

impl PsoConfig {
    /// A configuration small enough for unit tests.
    pub fn small() -> Self {
        PsoConfig {
            particles: 12,
            iterations: 15,
            inertia: 0.7,
            cognitive: 1.5,
            social: 1.5,
            seed: 0,
            workers: 1,
        }
    }

    /// Configuration used for the Table I reproduction (PSO runtimes in the
    /// paper sit between GA and RL).
    pub fn table1() -> Self {
        PsoConfig {
            particles: 30,
            iterations: 120,
            inertia: 0.72,
            cognitive: 1.5,
            social: 1.5,
            seed: 0,
            workers: 0,
        }
    }
}

impl Default for PsoConfig {
    fn default() -> Self {
        PsoConfig::small()
    }
}

/// A particle's continuous position: `2n` permutation keys + `n` shape keys.
#[derive(Debug, Clone)]
struct Particle {
    position: Vec<f64>,
    velocity: Vec<f64>,
    best_position: Vec<f64>,
    best_cost: f64,
}

/// Decodes a continuous position into a candidate.
fn decode(position: &[f64], num_blocks: usize) -> Candidate {
    let keys_pos = &position[0..num_blocks];
    let keys_neg = &position[num_blocks..2 * num_blocks];
    let keys_shape = &position[2 * num_blocks..3 * num_blocks];
    Candidate {
        positive: argsort(keys_pos),
        negative: argsort(keys_neg),
        shape_choice: keys_shape
            .iter()
            .map(|&k| {
                let idx = (k.clamp(0.0, 0.999_999) * SHAPES_PER_BLOCK as f64) as usize;
                idx.min(SHAPES_PER_BLOCK - 1)
            })
            .collect(),
    }
}

fn argsort(keys: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..keys.len()).collect();
    // `total_cmp`: a NaN key sorts to a stable position instead of making
    // the comparator lie about equality and scrambling the permutation.
    order.sort_by(|&a, &b| keys[a].total_cmp(&keys[b]));
    order
}

/// Runs particle swarm optimization on a circuit.
pub fn particle_swarm(circuit: &Circuit, config: &PsoConfig) -> BaselineResult {
    particle_swarm_on(&Problem::new(circuit), config, &RunControl::unbounded())
}

/// Runs particle swarm optimization on an existing problem under a
/// [`RunControl`], polled once per iteration (each iteration is already
/// `particles` evaluations wide, so no stride gating is needed). An
/// interrupted run returns the swarm's global best so far with the
/// interrupting [`StopReason`]; polling draws nothing from the RNG, so an
/// uninterrupted run is bit-identical to one under [`RunControl::unbounded`].
pub fn particle_swarm_on(
    problem: &Problem,
    config: &PsoConfig,
    control: &RunControl,
) -> BaselineResult {
    let started = Instant::now();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut pool = EvalPool::new(problem, config.workers);
    let n = problem.num_blocks();
    let dim = 3 * n;

    let mut particles: Vec<Particle> = (0..config.particles)
        .map(|_| {
            let position: Vec<f64> = (0..dim).map(|_| rng.gen::<f64>()).collect();
            let velocity: Vec<f64> = (0..dim).map(|_| rng.gen_range(-0.1..0.1)).collect();
            Particle {
                best_position: position.clone(),
                best_cost: f64::MAX,
                position,
                velocity,
            }
        })
        .collect();

    let mut global_best_position = particles[0].position.clone();
    let mut global_best_cost = f64::MAX;
    let mut evaluations = 0;
    let mut stop = StopReason::Completed;
    let mut swarm: Vec<Candidate> = Vec::with_capacity(config.particles);

    for _ in 0..config.iterations {
        // Decode the whole swarm, score it as one pool batch, then reduce in
        // particle order — the same order the serial loop updated bests in,
        // so the global best (and with it the next velocity update) is
        // identical at any worker count.
        swarm.clear();
        swarm.extend(particles.iter().map(|p| decode(&p.position, n)));
        let costs = pool.evaluate(problem, &swarm);
        debug_assert!(
            costs.iter().all(|c| c.is_finite()),
            "non-finite particle cost would scramble best tracking"
        );
        evaluations += costs.len();
        for (p, &cost) in particles.iter_mut().zip(&costs) {
            if cost < p.best_cost {
                p.best_cost = cost;
                p.best_position = p.position.clone();
            }
            if cost < global_best_cost {
                global_best_cost = cost;
                global_best_position = p.position.clone();
            }
        }
        // Control poll at the iteration boundary, after the global best has
        // settled and before the next velocity update draws from the RNG.
        if let Some(reason) = control.poll_now(evaluations as u64) {
            stop = reason;
            break;
        }
        if control.stop_on_first_feasible()
            && candidate_is_feasible(problem, &decode(&global_best_position, n))
        {
            control.cancel();
            stop = StopReason::FirstFeasible;
            break;
        }
        for p in &mut particles {
            for d in 0..dim {
                let r1: f64 = rng.gen();
                let r2: f64 = rng.gen();
                p.velocity[d] = config.inertia * p.velocity[d]
                    + config.cognitive * r1 * (p.best_position[d] - p.position[d])
                    + config.social * r2 * (global_best_position[d] - p.position[d]);
                p.position[d] = (p.position[d] + p.velocity[d]).clamp(0.0, 1.0);
            }
        }
    }

    let best = decode(&global_best_position, n);
    BaselineResult::from_candidate("PSO", problem, &best, started, evaluations).with_stop(stop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use afp_circuit::generators;

    #[test]
    fn decode_produces_valid_candidate() {
        let pos: Vec<f64> = (0..15).map(|i| (i as f64 * 0.37) % 1.0).collect();
        let c = decode(&pos, 5);
        let mut p = c.positive.clone();
        p.sort_unstable();
        assert_eq!(p, (0..5).collect::<Vec<_>>());
        assert!(c.shape_choice.iter().all(|&s| s < SHAPES_PER_BLOCK));
    }

    #[test]
    fn pso_runs_and_is_deterministic() {
        let circuit = generators::ota5();
        let a = particle_swarm(&circuit, &PsoConfig::small());
        let b = particle_swarm(&circuit, &PsoConfig::small());
        assert_eq!(a.reward, b.reward);
        assert_eq!(a.floorplan.num_placed(), circuit.num_blocks());
        assert_eq!(a.algorithm, "PSO");
        assert!(a.evaluations > 0);
    }

    #[test]
    fn pso_results_are_identical_across_worker_counts() {
        // EvalPool determinism: the swarm trajectory (personal bests, global
        // best, final decoded candidate) is reproducible for a seed at any
        // worker count. `workers: 1` additionally pins the persistent pool's
        // inline path against the serial default config.
        let circuit = generators::ota8();
        let serial = particle_swarm(&circuit, &PsoConfig::small());
        for workers in [1usize, 2, 4] {
            let cfg = PsoConfig {
                workers,
                ..PsoConfig::small()
            };
            let parallel = particle_swarm(&circuit, &cfg);
            assert_eq!(parallel.reward, serial.reward, "{workers} workers diverged");
            assert_eq!(parallel.evaluations, serial.evaluations);
            assert_eq!(parallel.floorplan, serial.floorplan);
        }
    }

    #[test]
    fn pso_beats_the_worst_random_particle() {
        let circuit = generators::ota3();
        let problem = Problem::new(&circuit);
        let result = particle_swarm(&circuit, &PsoConfig::small());
        let mut rng = StdRng::seed_from_u64(42);
        let worst = (0..10)
            .map(|_| problem.cost(&Candidate::random(problem.num_blocks(), &mut rng)))
            .fold(f64::MIN, f64::max);
        assert!(-result.reward <= worst);
    }
}
