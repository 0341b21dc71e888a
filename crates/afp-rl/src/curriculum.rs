//! Hybrid curriculum learning (HCL) schedule (paper §IV-D5, after [26]).
//!
//! The agent is trained on circuits of increasing complexity. For each base
//! circuit, the first half of its episode budget uses the circuit unchanged;
//! in the second half, a new randomized circuit instance is sampled with
//! probability `p_circuit` and an extra positional constraint is injected with
//! probability `p_constraint`, which keeps the agent exposed to diverse
//! scenarios and prevents catastrophic forgetting.

use rand::Rng;

use afp_circuit::{generators, Axis, BlockId, Circuit, Constraint, SymmetryGroup};

/// The HCL schedule over a list of base circuits.
#[derive(Debug, Clone)]
pub struct HclSchedule {
    circuits: Vec<Circuit>,
    episodes_per_circuit: usize,
    /// Probability of replacing the base circuit with a random variant in the
    /// sampling phase (0.5 in the paper).
    pub p_circuit: f64,
    /// Probability of injecting an extra constraint in the sampling phase
    /// (0.3 in the paper).
    pub p_constraint: f64,
    episode: usize,
}

impl HclSchedule {
    /// Creates a schedule. `circuits` should be ordered by increasing
    /// complexity (the paper trains on 3-, 3-, 5-, 8- and 9-block circuits).
    pub fn new(circuits: Vec<Circuit>, episodes_per_circuit: usize) -> Self {
        assert!(!circuits.is_empty(), "curriculum needs at least one circuit");
        HclSchedule {
            circuits,
            episodes_per_circuit: episodes_per_circuit.max(1),
            p_circuit: 0.5,
            p_constraint: 0.3,
            episode: 0,
        }
    }

    /// Total number of episodes in the schedule.
    pub fn total_episodes(&self) -> usize {
        self.circuits.len() * self.episodes_per_circuit
    }

    /// Whether every scheduled episode has been issued.
    pub fn is_finished(&self) -> bool {
        self.episode >= self.total_episodes()
    }

    /// Index of the base circuit the current episode belongs to.
    pub fn current_stage(&self) -> usize {
        (self.episode / self.episodes_per_circuit).min(self.circuits.len() - 1)
    }

    /// The base circuits of the curriculum.
    pub fn circuits(&self) -> &[Circuit] {
        &self.circuits
    }

    /// Returns the circuit to use for the next episode and advances the
    /// schedule. Returns `None` once the schedule is exhausted.
    pub fn next_episode<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<Circuit> {
        if self.is_finished() {
            return None;
        }
        let stage = self.current_stage();
        let within = self.episode % self.episodes_per_circuit;
        self.episode += 1;
        let base = &self.circuits[stage];
        // First half of each stage: the base circuit, unchanged.
        if within < self.episodes_per_circuit / 2 {
            return Some(base.clone());
        }
        // Second half: random circuit / constraint sampling.
        let mut circuit = if rng.gen_bool(self.p_circuit) {
            generators::random_variant(base, 0.25, rng)
        } else {
            base.clone()
        };
        if rng.gen_bool(self.p_constraint) {
            inject_random_constraint(&mut circuit, rng);
        }
        Some(circuit)
    }
}

/// Adds a random symmetry or alignment constraint between two unconstrained
/// blocks of similar area, if such a pair exists.
pub fn inject_random_constraint<R: Rng + ?Sized>(circuit: &mut Circuit, rng: &mut R) {
    let constrained: Vec<BlockId> = circuit
        .constraints
        .iter()
        .flat_map(|c| c.members())
        .collect();
    let free: Vec<BlockId> = circuit
        .blocks
        .iter()
        .map(|b| b.id)
        .filter(|id| !constrained.contains(id))
        .collect();
    if free.len() < 2 {
        return;
    }
    let a = free[rng.gen_range(0..free.len())];
    let mut b = free[rng.gen_range(0..free.len())];
    while b == a {
        b = free[rng.gen_range(0..free.len())];
    }
    let axis = if rng.gen_bool(0.5) {
        Axis::Vertical
    } else {
        Axis::Horizontal
    };
    if rng.gen_bool(0.5) {
        circuit
            .constraints
            .push(Constraint::Symmetry(SymmetryGroup::new(axis).with_pair(a, b)));
    } else {
        circuit.constraints.push(Constraint::Alignment(
            afp_circuit::AlignmentGroup::new(axis, vec![a, b]),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn schedule() -> HclSchedule {
        HclSchedule::new(vec![generators::ota3(), generators::ota5()], 8)
    }

    #[test]
    fn schedule_counts_episodes() {
        let mut s = schedule();
        assert_eq!(s.total_episodes(), 16);
        let mut rng = StdRng::seed_from_u64(0);
        let mut issued = 0;
        while s.next_episode(&mut rng).is_some() {
            issued += 1;
        }
        assert_eq!(issued, 16);
        assert!(s.is_finished());
    }

    #[test]
    fn first_half_of_each_stage_is_the_base_circuit() {
        let mut s = schedule();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..4 {
            let c = s.next_episode(&mut rng).unwrap();
            assert_eq!(c, generators::ota3());
        }
    }

    #[test]
    fn stages_progress_in_order() {
        let mut s = schedule();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..8 {
            s.next_episode(&mut rng).unwrap();
        }
        assert_eq!(s.current_stage(), 1);
        let c = s.next_episode(&mut rng).unwrap();
        assert_eq!(c.num_blocks(), 5);
    }

    #[test]
    fn sampling_phase_can_produce_variants() {
        let mut s = HclSchedule::new(vec![generators::ota3()], 40);
        let mut rng = StdRng::seed_from_u64(3);
        let mut saw_variant = false;
        while let Some(c) = s.next_episode(&mut rng) {
            if c != generators::ota3() {
                saw_variant = true;
            }
        }
        assert!(saw_variant, "sampling phase never produced a variant");
    }

    #[test]
    fn inject_constraint_adds_at_most_one() {
        let mut circuit = generators::oscillator();
        assert!(circuit.constraints.is_empty());
        let mut rng = StdRng::seed_from_u64(4);
        inject_random_constraint(&mut circuit, &mut rng);
        assert_eq!(circuit.constraints.len(), 1);
        circuit.validate().unwrap();
    }
}
