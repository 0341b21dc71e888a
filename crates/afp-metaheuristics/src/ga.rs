//! Genetic algorithm over sequence pairs.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use afp_circuit::{Circuit, SHAPES_PER_BLOCK};

use crate::common::{BaselineResult, Candidate, EvalPool, Problem, RunControl, StopReason};

/// Genetic-algorithm configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct GaConfig {
    /// Number of individuals per generation.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Probability of mutating each offspring.
    pub mutation_rate: f64,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Number of elite individuals copied unchanged into the next generation.
    pub elitism: usize,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for generation evaluation through the [`EvalPool`]
    /// (`0` = one per available hardware thread). Results are bit-identical
    /// at any worker count; see `docs/TUNING.md` for how to choose.
    pub workers: usize,
}

impl GaConfig {
    /// A configuration small enough for unit tests.
    pub fn small() -> Self {
        GaConfig {
            population: 16,
            generations: 12,
            mutation_rate: 0.3,
            tournament: 3,
            elitism: 2,
            seed: 0,
            workers: 1,
        }
    }

    /// Configuration used for the Table I reproduction (GA runtimes in the
    /// paper are ≈5× the SA runtimes, which this population/generation budget
    /// reproduces).
    pub fn table1() -> Self {
        GaConfig {
            population: 40,
            generations: 60,
            mutation_rate: 0.25,
            tournament: 4,
            elitism: 3,
            seed: 0,
            workers: 0,
        }
    }
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig::small()
    }
}

/// Order crossover (OX1) of two parent permutations.
fn order_crossover<R: Rng + ?Sized>(a: &[usize], b: &[usize], rng: &mut R) -> Vec<usize> {
    let n = a.len();
    if n < 2 {
        return a.to_vec();
    }
    let i = rng.gen_range(0..n);
    let j = rng.gen_range(0..n);
    let (lo, hi) = (i.min(j), i.max(j));
    let mut child = vec![usize::MAX; n];
    child[lo..=hi].copy_from_slice(&a[lo..=hi]);
    let segment: Vec<usize> = child[lo..=hi].to_vec();
    let fill: Vec<usize> = b.iter().copied().filter(|x| !segment.contains(x)).collect();
    let mut fill = fill.into_iter();
    for slot in child.iter_mut() {
        if *slot == usize::MAX {
            match fill.next() {
                Some(gene) => *slot = gene,
                None => {
                    // Two permutations of the same gene set always provide
                    // exactly enough fill genes; running out means a caller
                    // bred candidates over mismatched sets. Surface that in
                    // debug builds, degrade to parent `a` in release instead
                    // of unwinding a whole race.
                    debug_assert!(
                        false,
                        "order crossover ran out of fill genes (parents are not \
                         permutations of the same set)"
                    );
                    return a.to_vec();
                }
            }
        }
    }
    child
}

fn crossover<R: Rng + ?Sized>(a: &Candidate, b: &Candidate, rng: &mut R) -> Candidate {
    let shape_choice = a
        .shape_choice
        .iter()
        .zip(b.shape_choice.iter())
        .map(|(&sa, &sb)| if rng.gen_bool(0.5) { sa } else { sb })
        .collect();
    Candidate {
        positive: order_crossover(&a.positive, &b.positive, rng),
        negative: order_crossover(&a.negative, &b.negative, rng),
        shape_choice,
    }
}

/// Runs the genetic algorithm on a circuit.
pub fn genetic_algorithm(circuit: &Circuit, config: &GaConfig) -> BaselineResult {
    let problem = Problem::new(circuit);
    genetic_algorithm_on(&problem, config, &RunControl::unbounded())
}

/// Runs the genetic algorithm on an existing problem under a [`RunControl`].
///
/// The control is polled once per generation (each generation is already
/// `population` evaluations wide, so no stride gating is needed — see
/// `docs/TUNING.md`). A completed run returns the best of the *final*
/// population; an interrupted run returns the best candidate seen across all
/// generations so far, with the interrupting [`StopReason`]. Polling draws
/// nothing from the RNG, so an uninterrupted run is bit-identical to one
/// under [`RunControl::unbounded`].
pub fn genetic_algorithm_on(
    problem: &Problem,
    config: &GaConfig,
    control: &RunControl,
) -> BaselineResult {
    let started = Instant::now();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut pool = EvalPool::new(problem, config.workers);
    let n = problem.num_blocks();

    let mut population: Vec<Candidate> = (0..config.population)
        .map(|i| {
            if i == 0 {
                Candidate::identity(n, problem.shape_sets())
            } else {
                Candidate::random(n, &mut rng)
            }
        })
        .collect();
    let mut costs: Vec<f64> = pool.evaluate(problem, &population);
    debug_assert!(
        costs.iter().all(|c| c.is_finite()),
        "non-finite candidate cost would scramble selection"
    );
    let mut evaluations = population.len();

    // Best-so-far across generations, consulted only when a control
    // interrupts the run (a completed run keeps the historical
    // best-of-final-population return, preserving bit-identity).
    let (mut seen_best, mut seen_best_cost) = best_of(&population, &costs);
    let mut stop = StopReason::Completed;
    if let Some(reason) = control.poll_now(evaluations as u64) {
        return BaselineResult::from_candidate("GA", problem, &seen_best, started, evaluations)
            .with_stop(reason);
    }

    for _gen in 0..config.generations {
        // Sort by fitness (ascending cost). `total_cmp` gives a total order
        // even if a NaN cost ever slips through, so selection can never be
        // silently scrambled by `partial_cmp` returning `None`.
        let mut order: Vec<usize> = (0..population.len()).collect();
        order.sort_by(|&a, &b| costs[a].total_cmp(&costs[b]));
        let mut next: Vec<Candidate> = order
            .iter()
            .take(config.elitism.min(population.len()))
            .map(|&i| population[i].clone())
            .collect();
        while next.len() < config.population {
            let parent_a = tournament_select(&population, &costs, config.tournament, &mut rng);
            let parent_b = tournament_select(&population, &costs, config.tournament, &mut rng);
            let mut child = crossover(parent_a, parent_b, &mut rng);
            if rng.gen::<f64>() < config.mutation_rate {
                let _ = child.perturb(&mut rng);
            }
            if rng.gen::<f64>() < config.mutation_rate / 2.0 {
                let b = rng.gen_range(0..n);
                child.shape_choice[b] = rng.gen_range(0..SHAPES_PER_BLOCK);
            }
            next.push(child);
        }
        population = next;
        // The whole generation is scored as one pool batch. Elites re-enter
        // as memo hits when their worker scored them last generation; either
        // way their costs are bit-identical, so worker count never changes
        // the selection pressure.
        costs = pool.evaluate(problem, &population);
        debug_assert!(
            costs.iter().all(|c| c.is_finite()),
            "non-finite candidate cost would scramble selection"
        );
        evaluations += population.len();
        let (gen_best, gen_best_cost) = best_of(&population, &costs);
        if gen_best_cost < seen_best_cost {
            seen_best = gen_best;
            seen_best_cost = gen_best_cost;
        }
        if let Some(reason) = control.poll_now(evaluations as u64) {
            stop = reason;
            break;
        }
    }

    if stop.is_interrupted() {
        return BaselineResult::from_candidate("GA", problem, &seen_best, started, evaluations)
            .with_stop(stop);
    }
    let (best, _) = best_of(&population, &costs);
    BaselineResult::from_candidate("GA", problem, &best, started, evaluations)
}

/// The lowest-cost member of a scored population (lowest index on ties).
fn best_of(population: &[Candidate], costs: &[f64]) -> (Candidate, f64) {
    let idx = costs
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap_or(0);
    (population[idx].clone(), costs[idx])
}

fn tournament_select<'a, R: Rng + ?Sized>(
    population: &'a [Candidate],
    costs: &[f64],
    k: usize,
    rng: &mut R,
) -> &'a Candidate {
    let mut best = rng.gen_range(0..population.len());
    for _ in 1..k.max(1) {
        let challenger = rng.gen_range(0..population.len());
        if costs[challenger] < costs[best] {
            best = challenger;
        }
    }
    &population[best]
}

#[cfg(test)]
mod tests {
    use super::*;
    use afp_circuit::generators;

    #[test]
    fn order_crossover_produces_permutation() {
        let mut rng = StdRng::seed_from_u64(0);
        let a: Vec<usize> = (0..9).collect();
        let b: Vec<usize> = (0..9).rev().collect();
        for _ in 0..20 {
            let mut child = order_crossover(&a, &b, &mut rng);
            child.sort_unstable();
            assert_eq!(child, (0..9).collect::<Vec<_>>());
        }
    }

    #[test]
    fn ga_places_all_blocks_and_is_deterministic() {
        let circuit = generators::ota5();
        let a = genetic_algorithm(&circuit, &GaConfig::small());
        let b = genetic_algorithm(&circuit, &GaConfig::small());
        assert_eq!(a.reward, b.reward);
        assert_eq!(a.floorplan.num_placed(), circuit.num_blocks());
        assert_eq!(a.algorithm, "GA");
    }

    #[test]
    fn ga_results_are_identical_across_worker_counts() {
        // The EvalPool determinism contract, end to end: the whole GA
        // trajectory — every tournament, every elite, the final best cost —
        // must be reproducible for a seed at any worker count, because
        // per-candidate costs are bit-identical no matter which worker's
        // cache evaluates them. `workers: 1` additionally pins the persistent
        // pool's inline path against the serial default config.
        let circuit = generators::ota8();
        let serial = genetic_algorithm(&circuit, &GaConfig::small());
        for workers in [1usize, 2, 4] {
            let cfg = GaConfig {
                workers,
                ..GaConfig::small()
            };
            let parallel = genetic_algorithm(&circuit, &cfg);
            assert_eq!(parallel.reward, serial.reward, "{workers} workers diverged");
            assert_eq!(parallel.evaluations, serial.evaluations);
            assert_eq!(parallel.floorplan, serial.floorplan);
        }
    }

    #[test]
    fn more_generations_do_not_hurt() {
        let circuit = generators::ota3();
        let short = genetic_algorithm(
            &circuit,
            &GaConfig {
                generations: 2,
                ..GaConfig::small()
            },
        );
        let long = genetic_algorithm(
            &circuit,
            &GaConfig {
                generations: 20,
                ..GaConfig::small()
            },
        );
        assert!(long.reward >= short.reward - 1e-9);
        assert!(long.evaluations > short.evaluations);
    }
}
