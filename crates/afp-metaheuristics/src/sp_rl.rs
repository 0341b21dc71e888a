//! Sequence-pair reinforcement-learning baseline ("RL" column of Table I).
//!
//! This reimplements, in simplified form, the pure-RL floorplanner of the
//! paper's predecessor [13]: an agent is trained *per instance* with a
//! policy-gradient method to transform a sequence pair through local moves.
//! Because every circuit is optimized from scratch, runtimes are one to two
//! orders of magnitude above SA — exactly the behaviour the paper's Table I
//! reports for the "RL [13]" column and the motivation for the transferable
//! R-GCN + PPO approach.
//!
//! The policy is a softmax over move types whose logits are updated with
//! REINFORCE using the per-episode improvement as the return. This captures
//! the per-instance-learning character of [13] without reproducing its full
//! network, which the paper does not specify in detail.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use afp_circuit::{Circuit, SHAPES_PER_BLOCK};

use crate::common::{
    boundary_stop, BaselineResult, Candidate, EvalPool, Problem, RunControl, StopReason,
};

/// Number of move types the policy chooses between.
const NUM_MOVES: usize = 4;

/// Configuration of the per-instance sequence-pair RL baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct SpRlConfig {
    /// Number of training episodes.
    pub episodes: usize,
    /// Number of moves applied per episode.
    pub moves_per_episode: usize,
    /// Policy-gradient learning rate.
    pub learning_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl SpRlConfig {
    /// A configuration small enough for unit tests.
    pub fn small() -> Self {
        SpRlConfig {
            episodes: 20,
            moves_per_episode: 10,
            learning_rate: 0.1,
            seed: 0,
        }
    }

    /// Configuration used for the Table I reproduction. The episode budget is
    /// deliberately large so the per-instance-training runtime penalty of the
    /// method is visible, as in the paper.
    pub fn table1() -> Self {
        SpRlConfig {
            episodes: 300,
            moves_per_episode: 40,
            learning_rate: 0.05,
            seed: 0,
        }
    }
}

impl Default for SpRlConfig {
    fn default() -> Self {
        SpRlConfig::small()
    }
}

fn softmax(logits: &[f64]) -> Vec<f64> {
    let m = logits.iter().copied().fold(f64::MIN, f64::max);
    let exps: Vec<f64> = logits.iter().map(|&l| (l - m).exp()).collect();
    let s: f64 = exps.iter().sum();
    exps.iter().map(|e| e / s).collect()
}

fn sample_move<R: Rng + ?Sized>(probs: &[f64], rng: &mut R) -> usize {
    let mut u: f64 = rng.gen();
    for (i, &p) in probs.iter().enumerate() {
        if u < p {
            return i;
        }
        u -= p;
    }
    probs.len() - 1
}

fn apply_move<R: Rng + ?Sized>(candidate: &mut Candidate, move_type: usize, rng: &mut R) {
    let n = candidate.positive.len();
    if n < 2 {
        return;
    }
    let pick = |rng: &mut R| {
        let i = rng.gen_range(0..n);
        let mut j = rng.gen_range(0..n);
        while j == i {
            j = rng.gen_range(0..n);
        }
        (i, j)
    };
    match move_type {
        0 => {
            let (i, j) = pick(rng);
            candidate.positive.swap(i, j);
        }
        1 => {
            let (i, j) = pick(rng);
            candidate.negative.swap(i, j);
        }
        2 => {
            let (i, j) = pick(rng);
            candidate.positive.swap(i, j);
            candidate.negative.swap(i, j);
        }
        _ => {
            let b = rng.gen_range(0..n);
            candidate.shape_choice[b] = rng.gen_range(0..SHAPES_PER_BLOCK);
        }
    }
}

/// Runs the per-instance sequence-pair RL baseline on a circuit.
pub fn sequence_pair_rl(circuit: &Circuit, config: &SpRlConfig) -> BaselineResult {
    sequence_pair_rl_on(&Problem::new(circuit), config, &RunControl::unbounded()).0
}

/// Runs the baseline on an existing problem under a [`RunControl`], returning
/// both the result and the best candidate found (the RL-SA hybrid seeds its
/// SA stage with it).
///
/// The control is polled once per episode (episodes are tens of evaluations
/// wide, so no stride gating is needed). An interrupted run returns the best
/// candidate seen so far with the interrupting [`StopReason`]; polling draws
/// nothing from the RNG, so an uninterrupted run is bit-identical to one
/// under [`RunControl::unbounded`].
pub fn sequence_pair_rl_on(
    problem: &Problem,
    config: &SpRlConfig,
    control: &RunControl,
) -> (BaselineResult, Candidate) {
    let started = Instant::now();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = problem.num_blocks();

    // The REINFORCE recurrence only ever exposes one candidate at a time
    // (the logits update needs each episode's end cost before the next
    // episode's moves are sampled), so SP-RL evaluates through the pool's
    // serial entry point: the pool owns the warm cache stack like it does
    // for GA/PSO, but no batch wider than one exists to fan out — and a
    // 2-item batch would never amortize a thread spawn (docs/TUNING.md).
    let mut pool = EvalPool::new(problem, 1);
    let mut logits = vec![0.0f64; NUM_MOVES];
    let mut best = Candidate::identity(n, problem.shape_sets());
    let mut best_cost = pool.evaluate_one(problem, &best);
    let mut evaluations = 1;
    let mut baseline_return = 0.0f64;
    let mut stop = StopReason::Completed;

    if let Some(reason) = boundary_stop(problem, control, &best, evaluations) {
        let result = BaselineResult::from_candidate("RL (SP)", problem, &best, started, evaluations)
            .with_stop(reason);
        return (result, best);
    }

    for episode in 0..config.episodes {
        let mut candidate = if episode % 4 == 0 {
            Candidate::random(n, &mut rng)
        } else {
            best.clone()
        };
        let start_cost = pool.evaluate_one(problem, &candidate);
        evaluations += 1;
        let mut chosen_moves = Vec::with_capacity(config.moves_per_episode);
        for _ in 0..config.moves_per_episode {
            let probs = softmax(&logits);
            let mv = sample_move(&probs, &mut rng);
            chosen_moves.push(mv);
            apply_move(&mut candidate, mv, &mut rng);
        }
        let end_cost = pool.evaluate_one(problem, &candidate);
        evaluations += 1;
        if end_cost < best_cost {
            best_cost = end_cost;
            best = candidate;
        }
        // Episode return: the cost improvement achieved by the move sequence.
        let episode_return = start_cost - end_cost;
        baseline_return = 0.9 * baseline_return + 0.1 * episode_return;
        let advantage = episode_return - baseline_return;
        // REINFORCE update on the move-type distribution.
        let probs = softmax(&logits);
        for &mv in &chosen_moves {
            for (k, logit) in logits.iter_mut().enumerate() {
                let indicator = if k == mv { 1.0 } else { 0.0 };
                *logit += config.learning_rate * advantage * (indicator - probs[k]);
            }
        }
        // Control poll at the episode boundary, after the policy update and
        // before the next episode samples from the RNG.
        if let Some(reason) = boundary_stop(problem, control, &best, evaluations) {
            stop = reason;
            break;
        }
    }

    let result = BaselineResult::from_candidate("RL (SP)", problem, &best, started, evaluations)
        .with_stop(stop);
    (result, best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use afp_circuit::generators;

    #[test]
    fn softmax_is_a_distribution() {
        let p = softmax(&[0.0, 1.0, -1.0, 2.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(p.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn moves_preserve_permutations() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut c = Candidate::random(8, &mut rng);
        for mv in 0..NUM_MOVES {
            apply_move(&mut c, mv, &mut rng);
        }
        let mut p = c.positive.clone();
        p.sort_unstable();
        assert_eq!(p, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn sp_rl_runs_and_places_everything() {
        let circuit = generators::ota5();
        let result = sequence_pair_rl(&circuit, &SpRlConfig::small());
        assert_eq!(result.floorplan.num_placed(), circuit.num_blocks());
        assert!(result.reward.is_finite());
        assert_eq!(result.algorithm, "RL (SP)");
    }

    #[test]
    fn sp_rl_is_deterministic_per_seed() {
        let circuit = generators::ota3();
        let a = sequence_pair_rl(&circuit, &SpRlConfig::small());
        let b = sequence_pair_rl(&circuit, &SpRlConfig::small());
        assert_eq!(a.reward, b.reward);
    }

    #[test]
    fn sp_rl_improves_with_more_episodes() {
        let circuit = generators::ota5();
        let short = sequence_pair_rl(
            &circuit,
            &SpRlConfig {
                episodes: 2,
                ..SpRlConfig::small()
            },
        );
        let long = sequence_pair_rl(
            &circuit,
            &SpRlConfig {
                episodes: 60,
                ..SpRlConfig::small()
            },
        );
        assert!(long.reward >= short.reward - 1e-9);
    }
}
