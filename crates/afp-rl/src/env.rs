//! The floorplanning MDP environment (paper §IV-A).
//!
//! An episode places the blocks of one circuit in decreasing-area order. At
//! every step the agent observes the six grid masks plus the identity of the
//! current block; it selects a shape and a lower-left cell; the environment
//! returns the intermediate reward of Eq. 4 and, on the last step, adds the
//! terminal reward of Eq. 5. Selecting an invalid action (or reaching a state
//! where no action is admissible) ends the episode with the −50 penalty.

use afp_circuit::{shapes::shape_sets, BlockId, Circuit, CircuitGraph, ShapeSet, SHAPES_PER_BLOCK};
use afp_layout::metrics::{self, VIOLATION_PENALTY};
use afp_layout::{constraints, masks::StateMasks, Canvas, Floorplan, FloorplanMetrics};

use crate::action::Action;

/// Why an episode ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// The episode is still running.
    Running,
    /// All blocks were placed successfully.
    Completed,
    /// The agent selected an inadmissible action.
    InvalidAction,
    /// No admissible action existed for the current block.
    DeadEnd,
}

/// The observation handed to the agent at each step.
#[derive(Debug, Clone)]
pub struct Observation {
    /// The six grid masks of the current state.
    pub masks: StateMasks,
    /// The block to be placed next.
    pub current_block: BlockId,
    /// Index of that block in the circuit graph (for the node embedding).
    pub node_index: usize,
    /// Flattened action mask over the full `3 × 32 × 32` action space:
    /// `1.0` for admissible actions, `0.0` otherwise — the positional masks'
    /// words as the `f32` the policy's masked softmax takes.
    pub action_mask: Vec<f32>,
}

/// Result of one environment step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepOutcome {
    /// The reward collected at this step (intermediate + terminal if last).
    pub reward: f64,
    /// Whether the episode has ended.
    pub done: bool,
    /// How the episode ended (or [`Termination::Running`]).
    pub termination: Termination,
}

/// The floorplanning environment for one circuit.
#[derive(Debug, Clone)]
pub struct FloorplanEnv {
    circuit: Circuit,
    graph: CircuitGraph,
    shape_sets: Vec<ShapeSet>,
    canvas: Canvas,
    floorplan: Floorplan,
    order: Vec<BlockId>,
    step_index: usize,
    hpwl_min: f64,
    previous_metrics: FloorplanMetrics,
    termination: Termination,
    accumulated_reward: f64,
    /// The observation of the current state, when `step` already built it
    /// for its dead-end probe; `observe` hands it out instead of rebuilding.
    next_observation: Option<Observation>,
}

impl FloorplanEnv {
    /// Creates an environment for a circuit.
    pub fn new(circuit: Circuit) -> Self {
        let graph = CircuitGraph::from_circuit(&circuit);
        let shape_sets = shape_sets(&circuit);
        let canvas = Canvas::for_circuit(&circuit);
        let order = circuit.blocks_by_decreasing_area();
        let hpwl_min = metrics::hpwl_lower_bound(&circuit);
        FloorplanEnv {
            floorplan: Floorplan::new(canvas),
            previous_metrics: FloorplanMetrics::empty(),
            circuit,
            graph,
            shape_sets,
            canvas,
            order,
            step_index: 0,
            hpwl_min,
            termination: Termination::Running,
            accumulated_reward: 0.0,
            next_observation: None,
        }
    }

    /// The circuit being floorplanned.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// The relational graph of the circuit (input to the R-GCN encoder).
    pub fn graph(&self) -> &CircuitGraph {
        &self.graph
    }

    /// The current (possibly partial) floorplan.
    pub fn floorplan(&self) -> &Floorplan {
        &self.floorplan
    }

    /// Episode length (number of blocks to place).
    pub fn episode_length(&self) -> usize {
        self.order.len()
    }

    /// Number of blocks placed so far.
    pub fn steps_taken(&self) -> usize {
        self.step_index
    }

    /// Whether the episode has ended.
    pub fn is_done(&self) -> bool {
        self.termination != Termination::Running
    }

    /// Total reward accumulated over the episode so far.
    pub fn accumulated_reward(&self) -> f64 {
        self.accumulated_reward
    }

    /// How the episode ended.
    pub fn termination(&self) -> Termination {
        self.termination
    }

    /// The `HPWL_min` normalization used by the rewards.
    pub fn hpwl_min(&self) -> f64 {
        self.hpwl_min
    }

    /// Resets the environment to an empty floorplan and returns the first
    /// observation (or `None` for a block-less circuit).
    pub fn reset(&mut self) -> Option<Observation> {
        self.floorplan = Floorplan::new(self.canvas);
        self.step_index = 0;
        self.previous_metrics = FloorplanMetrics::empty();
        self.termination = Termination::Running;
        self.accumulated_reward = 0.0;
        self.next_observation = None;
        self.observe()
    }

    /// The observation for the current step, or `None` if the episode has
    /// ended. After a [`FloorplanEnv::step`] this is the observation the
    /// step's dead-end probe already built (handed out once); otherwise it
    /// is built here.
    pub fn observe(&mut self) -> Option<Observation> {
        if let Some(obs) = self.next_observation.take() {
            return Some(obs);
        }
        self.build_observation()
    }

    fn build_observation(&self) -> Option<Observation> {
        if self.is_done() || self.step_index >= self.order.len() {
            return None;
        }
        let block = self.order[self.step_index];
        let shapes = &self.shape_sets[block.index()];
        let masks = StateMasks::build(&self.circuit, &self.floorplan, block, shapes);
        Some(Observation {
            action_mask: masks.action_mask(),
            masks,
            current_block: block,
            node_index: block.index(),
        })
    }

    /// Applies an action for the current block.
    ///
    /// Invalid actions (shape indices past the block's candidate shapes,
    /// masked-out cells, overlaps) terminate the episode with the violation
    /// penalty and place nothing, mirroring the paper's constraint handling.
    pub fn step(&mut self, action: Action) -> StepOutcome {
        self.next_observation = None;
        if self.is_done() || self.step_index >= self.order.len() {
            return StepOutcome {
                reward: 0.0,
                done: true,
                termination: self.termination,
            };
        }
        let block = self.order[self.step_index];
        // A candidate shape, admissible under the constraint-aware positional
        // mask, and placed without overlap.
        let placed = action.shape_index < SHAPES_PER_BLOCK && {
            let shape = self.shape_sets[block.index()].shape(action.shape_index);
            afp_layout::masks::positional_mask(&self.circuit, &self.floorplan, block, &shape)
                .get(action.cell.x, action.cell.y)
                && self
                    .floorplan
                    .place(block, action.shape_index, shape, action.cell)
                    .is_ok()
        };
        if !placed {
            self.termination = Termination::InvalidAction;
            self.accumulated_reward += VIOLATION_PENALTY;
            return StepOutcome {
                reward: VIOLATION_PENALTY,
                done: true,
                termination: self.termination,
            };
        }

        self.step_index += 1;
        let current_metrics = metrics::metrics(&self.circuit, &self.floorplan);
        let mut reward =
            metrics::intermediate_reward(&self.previous_metrics, &current_metrics, self.hpwl_min);
        self.previous_metrics = current_metrics;

        if self.step_index == self.order.len() {
            // Episode complete: add the terminal reward of Eq. 5.
            reward += metrics::episode_reward(&self.circuit, &self.floorplan, self.hpwl_min);
            self.termination = Termination::Completed;
            self.accumulated_reward += reward;
            return StepOutcome {
                reward,
                done: true,
                termination: self.termination,
            };
        }

        // Detect dead ends for the next block (no admissible action at all),
        // keeping the probe's observation for `observe`.
        if let Some(next_obs) = self.build_observation() {
            if next_obs.masks.is_dead_end() {
                self.termination = Termination::DeadEnd;
                reward += VIOLATION_PENALTY;
                self.accumulated_reward += reward;
                return StepOutcome {
                    reward,
                    done: true,
                    termination: self.termination,
                };
            }
            self.next_observation = Some(next_obs);
        }

        self.accumulated_reward += reward;
        StepOutcome {
            reward,
            done: false,
            termination: Termination::Running,
        }
    }

    /// Final episode reward (Eq. 5) of the floorplan built so far — the metric
    /// Table I reports. Returns the violation penalty if the episode did not
    /// complete successfully.
    pub fn final_episode_reward(&self) -> f64 {
        metrics::episode_reward(&self.circuit, &self.floorplan, self.hpwl_min)
    }

    /// Number of constraint violations in the current floorplan.
    pub fn violations(&self) -> usize {
        constraints::count_violations(&self.circuit, &self.floorplan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::ACTION_SPACE;
    use afp_circuit::generators;
    use afp_layout::Cell;

    /// Picks the first admissible action of an observation.
    fn first_valid_action(obs: &Observation) -> Action {
        let idx = obs
            .action_mask
            .iter()
            .position(|&v| v > 0.0)
            .expect("at least one valid action");
        Action::from_index(idx)
    }

    #[test]
    fn episode_walks_through_all_blocks() {
        let mut env = FloorplanEnv::new(generators::ota5());
        let mut obs = env.reset().unwrap();
        let mut steps = 0;
        loop {
            let outcome = env.step(first_valid_action(&obs));
            steps += 1;
            if outcome.done {
                assert_eq!(outcome.termination, Termination::Completed);
                break;
            }
            obs = env.observe().unwrap();
        }
        assert_eq!(steps, 5);
        assert_eq!(env.floorplan().num_placed(), 5);
        assert!(env.final_episode_reward() > -50.0);
    }

    #[test]
    fn invalid_action_terminates_with_penalty() {
        let mut env = FloorplanEnv::new(generators::ota5());
        let obs = env.reset().unwrap();
        // Find a masked-out action.
        let invalid = obs
            .action_mask
            .iter()
            .position(|&v| v == 0.0)
            .expect("some invalid action exists");
        let outcome = env.step(Action::from_index(invalid));
        assert!(outcome.done);
        assert_eq!(outcome.termination, Termination::InvalidAction);
        assert_eq!(outcome.reward, -50.0);
    }

    #[test]
    fn out_of_range_shape_index_is_an_invalid_action() {
        let mut env = FloorplanEnv::new(generators::ota5());
        let obs = env.reset().unwrap();
        // A cell the last candidate shape may take.
        let last_plane = (SHAPES_PER_BLOCK - 1) * afp_layout::GRID_SIZE * afp_layout::GRID_SIZE;
        let offset = obs.action_mask[last_plane..]
            .iter()
            .position(|&v| v > 0.0)
            .expect("the last shape has an admissible cell");
        let cell = Action::from_index(last_plane + offset).cell;
        let outcome = env.step(Action::new(SHAPES_PER_BLOCK, cell));
        assert!(outcome.done);
        assert_eq!(outcome.termination, Termination::InvalidAction);
        assert_eq!(outcome.reward, VIOLATION_PENALTY);
        assert_eq!(env.floorplan().num_placed(), 0);
    }

    #[test]
    fn observation_masks_have_expected_sizes() {
        let mut env = FloorplanEnv::new(generators::ota8());
        let obs = env.reset().unwrap();
        assert_eq!(obs.action_mask.len(), ACTION_SPACE);
        assert!(!obs.masks.is_dead_end());
        assert!(obs.action_mask.contains(&1.0));
        assert_eq!(obs.masks.to_tensor_data().len(), 6 * 32 * 32);
        assert_eq!(env.episode_length(), 8);
    }

    #[test]
    fn largest_block_is_placed_first() {
        let circuit = generators::driver();
        let largest = circuit.blocks_by_decreasing_area()[0];
        let mut env = FloorplanEnv::new(circuit);
        let obs = env.reset().unwrap();
        assert_eq!(obs.current_block, largest);
    }

    #[test]
    fn reset_clears_state() {
        let mut env = FloorplanEnv::new(generators::ota3());
        let obs = env.reset().unwrap();
        env.step(first_valid_action(&obs));
        assert_eq!(env.steps_taken(), 1);
        env.reset().unwrap();
        assert_eq!(env.steps_taken(), 0);
        assert_eq!(env.floorplan().num_placed(), 0);
        assert!(!env.is_done());
    }

    #[test]
    fn intermediate_rewards_are_bounded() {
        let mut env = FloorplanEnv::new(generators::rs_latch());
        let mut obs = env.reset().unwrap();
        loop {
            // Always use a central-ish valid cell to avoid pathological spread.
            let outcome = env.step(first_valid_action(&obs));
            if !outcome.done {
                assert!(outcome.reward.abs() < 50.0);
                obs = env.observe().unwrap();
            } else {
                break;
            }
        }
    }

    /// The observation `step` keeps from its dead-end probe is bit for bit
    /// the one a fresh `StateMasks::build` makes of the same state.
    #[test]
    fn kept_observation_matches_a_fresh_build() {
        for circuit in [
            generators::ota5(),
            generators::bias9(),
            generators::rs_latch(),
        ] {
            let mut env = FloorplanEnv::new(circuit);
            let mut obs = env.reset().unwrap();
            loop {
                let outcome = env.step(first_valid_action(&obs));
                if outcome.done {
                    assert!(env.observe().is_none());
                    break;
                }
                obs = env.observe().unwrap();
                let block = obs.current_block;
                let fresh = StateMasks::build(
                    env.circuit(),
                    env.floorplan(),
                    block,
                    &env.shape_sets[block.index()],
                );
                let bits = |m: &StateMasks| -> Vec<u32> {
                    m.to_tensor_data().iter().map(|v| v.to_bits()).collect()
                };
                assert_eq!(bits(&obs.masks), bits(&fresh));
                let rebuilt = env.build_observation().unwrap();
                assert_eq!(obs.action_mask, rebuilt.action_mask);
                assert_eq!(obs.node_index, block.index());
            }
        }
    }

    #[test]
    fn step_after_done_is_a_noop() {
        let mut env = FloorplanEnv::new(generators::ota3());
        let obs = env.reset().unwrap();
        let bad = obs.action_mask.iter().position(|&v| v == 0.0).unwrap();
        env.step(Action::from_index(bad));
        assert!(env.is_done());
        let again = env.step(Action::new(0, Cell::new(0, 0)));
        assert!(again.done);
        assert_eq!(again.reward, 0.0);
    }
}
