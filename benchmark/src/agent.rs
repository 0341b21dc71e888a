//! The agent workload, `curriculum_train`.
//!
//! The untraced run calls the production entry points (`train_agent`, then
//! `LayoutPipeline::run` with each trained agent). The traced run first
//! repeats one untraced pass as the reference, then replays the same requests
//! from the public pieces those entry points are made of
//! (`env.reset`/`observe`/`step`, `policy_mut().forward`, masked sampling,
//! `PpoTrainer::update`) with a span around each call, and requires the
//! replay to reproduce the reference bit for bit.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use afp_circuit::shapes::shape_sets;
use afp_circuit::{generators, BlockId, Circuit, ConstraintSet};
use afp_core::{LayoutPipeline, PipelineResult};
use afp_layout::masks::{dead_space_mask, positional_masks, wire_mask, StateMasks};
use afp_layout::{metrics, Floorplan, GRID_SIZE, STATE_CHANNELS};
use afp_rl::{
    greedy_masked_action, masked_log_softmax, sample_masked_action, train_agent, AblationFlags,
    Action, AgentConfig, EpisodeSummary, EpochStats, FloorplanAgent, FloorplanEnv, HclSchedule,
    PpoTrainer, RolloutBuffer, SolveResult, Termination, TrainConfig, Transition,
};
use afp_route::{complete_layout, ProceduralConfig};
use afp_tensor::Tensor;

use crate::report::{
    check_floorplan, placements, run_passes, EndToEnd, FirstPass, Quality, QualityMeans, Setup,
};
use crate::trace::{SpanId, Tracer};
use crate::{Args, Counters, Run};

/// Curriculum runs in one `curriculum_train` pass, each from its own seed.
const CURRICULA_PER_PASS: u64 = 2;
/// Episodes per curriculum circuit.
const EPISODES_PER_CIRCUIT: usize = 24;

/// The Table I circuits with their constraints removed, as Table I's
/// zero-shot column runs them.
fn evaluation_inputs() -> Vec<Circuit> {
    let mut circuits: Vec<Circuit> = generators::evaluation_set()
        .into_iter()
        .map(|b| b.circuit)
        .collect();
    for c in &mut circuits {
        c.constraints = ConstraintSet::new();
    }
    circuits
}

fn train_configs(seed: u64) -> Vec<TrainConfig> {
    (0..CURRICULA_PER_PASS)
        .map(|k| TrainConfig {
            episodes_per_circuit: EPISODES_PER_CIRCUIT,
            seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(k),
            ..TrainConfig::small()
        })
        .collect()
}

/// Bit-exact identity of a pipeline run: placements, reward and routed
/// wirelength.
fn layout_key(floorplan: &Floorplan, reward: f64, wirelength_um: f64) -> String {
    format!(
        "{} {:x} {:x}",
        placements(floorplan),
        reward.to_bits(),
        wirelength_um.to_bits()
    )
}

fn pipeline_key(r: &PipelineResult) -> String {
    layout_key(&r.floorplan, r.floorplan_reward, r.layout.wirelength_um)
}

fn fnv(bits: impl Iterator<Item = u32>) -> u64 {
    bits.fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

fn masks_hash(m: &StateMasks) -> u64 {
    fnv(m.to_tensor_data().iter().map(|v| v.to_bits()))
}

fn params_hash(agent: &FloorplanAgent) -> u64 {
    fnv(agent
        .policy()
        .params()
        .iter()
        .flat_map(|p| p.value.data().iter().map(|v| v.to_bits())))
}

/// One decision state kept for the layout probes.
struct State {
    floorplan: Floorplan,
    block: BlockId,
    masks: u64,
}

/// The traced replay of the agent's loops.
struct Replay<'a> {
    tr: &'a mut Tracer,
    c: &'a mut Counters,
    /// Circuit names the current agent has embedded. `FloorplanAgent::embed`
    /// caches by name, and each agent starts with an empty cache, so this
    /// set is only valid for agents built by [`Replay::fresh_agent`].
    embedded: HashSet<String>,
    states: Vec<State>,
    /// Seconds spent in [`Replay::probe_layout`], which the untraced path
    /// does not run, kept out of the traced request rate.
    probe_s: f64,
}

impl<'a> Replay<'a> {
    fn new(tr: &'a mut Tracer, c: &'a mut Counters) -> Self {
        Replay {
            tr,
            c,
            embedded: HashSet::new(),
            states: Vec::new(),
            probe_s: 0.0,
        }
    }

    /// A new agent, whose embedding cache is empty.
    fn fresh_agent(&mut self, config: &AgentConfig) -> FloorplanAgent {
        self.embedded.clear();
        FloorplanAgent::new(config.clone())
    }

    /// `FloorplanAgent::run_episode`, one span per stage call.
    #[allow(clippy::too_many_arguments)]
    fn episode<R: Rng + ?Sized>(
        &mut self,
        agent: &mut FloorplanAgent,
        env: &mut FloorplanEnv,
        explore: bool,
        mut buffer: Option<&mut RolloutBuffer>,
        rng: &mut R,
        parent: SpanId,
        request: u64,
    ) -> EpisodeSummary {
        let tr = &mut *self.tr;
        let at = Some(parent);
        let name = env.circuit().name.clone();
        let graph = env.graph().clone();
        let embedding = if self.embedded.insert(name.clone()) {
            tr.time("gnn.encode", at, request, || agent.embed(&name, &graph))
        } else {
            self.c.embed_hits += 1;
            agent.embed(&name, &graph)
        };
        self.c.rollouts += 1;
        let Some(mut obs) = tr.time("rl.observe", at, request, || env.reset()) else {
            return EpisodeSummary {
                total_reward: 0.0,
                final_reward: env.final_episode_reward(),
                termination: Termination::Completed,
                steps: 0,
            };
        };
        let mut total_reward = 0.0;
        let mut steps = 0;
        loop {
            self.states.push(State {
                floorplan: env.floorplan().clone(),
                block: obs.current_block,
                masks: masks_hash(&obs.masks),
            });
            let masks = Tensor::from_vec(
                obs.masks.to_tensor_data(),
                &[STATE_CHANNELS, GRID_SIZE, GRID_SIZE],
            );
            let node_embedding = embedding.node(obs.node_index);
            let out = tr.time("rl.forward", at, request, || {
                agent
                    .policy_mut()
                    .forward(&masks, &embedding.graph_embedding, &node_embedding)
            });
            let (action, log_prob) = tr.time("rl.sample", at, request, || {
                if explore {
                    sample_masked_action(&out.logits, &obs.action_mask, rng)
                } else {
                    let a = greedy_masked_action(&out.logits, &obs.action_mask);
                    (a, masked_log_softmax(&out.logits, &obs.action_mask).get(a))
                }
            });
            let outcome = tr.time("rl.step", at, request, || {
                env.step(Action::from_index(action))
            });
            total_reward += outcome.reward;
            steps += 1;
            if let Some(buf) = buffer.as_deref_mut() {
                buf.push(Transition {
                    masks,
                    graph_embedding: embedding.graph_embedding.clone(),
                    node_embedding,
                    action_mask: obs.action_mask.clone(),
                    action,
                    log_prob,
                    value: out.value,
                    reward: outcome.reward as f32,
                    done: outcome.done,
                });
            }
            if outcome.done {
                if outcome.termination != Termination::Completed {
                    self.c.failed_rollouts += 1;
                }
                return EpisodeSummary {
                    total_reward,
                    final_reward: env.final_episode_reward(),
                    termination: outcome.termination,
                    steps,
                };
            }
            obs = tr
                .time("rl.observe", at, request, || env.observe())
                .expect("episode not done");
        }
    }

    /// `FloorplanAgent::solve`: a greedy rollout, then seeded stochastic
    /// retries while rollouts dead-end; the most complete, best-reward
    /// rollout wins.
    fn solve(
        &mut self,
        agent: &mut FloorplanAgent,
        circuit: &Circuit,
        parent: SpanId,
        request: u64,
    ) -> SolveResult {
        let started = Instant::now();
        let mut rng = StdRng::seed_from_u64(agent.config().seed);
        let mut best: Option<SolveResult> = None;
        for attempt in 0..=FloorplanAgent::SOLVE_RETRY_ROLLOUTS {
            self.c.solve_rollouts += 1;
            let mut env = FloorplanEnv::new(circuit.clone());
            let summary = self.episode(
                agent,
                &mut env,
                attempt > 0,
                None,
                &mut rng,
                parent,
                request,
            );
            let m = self.tr.time("layout.metrics", Some(parent), request, || {
                metrics::metrics(circuit, env.floorplan())
            });
            let candidate = SolveResult {
                floorplan: env.floorplan().clone(),
                metrics: m,
                reward: summary.final_reward,
                runtime_s: started.elapsed().as_secs_f64(),
                termination: summary.termination,
            };
            let better = best.as_ref().is_none_or(|b| {
                let (placed, best_placed) =
                    (candidate.floorplan.num_placed(), b.floorplan.num_placed());
                placed > best_placed || (placed == best_placed && candidate.reward > b.reward)
            });
            if better {
                best = Some(candidate);
            }
            if summary.termination == Termination::Completed {
                break;
            }
        }
        self.c.solves += 1;
        let mut result = best.expect("at least one rollout attempted");
        result.runtime_s = started.elapsed().as_secs_f64();
        result
    }

    /// `train_agent`: HCL curriculum episodes, a PPO update per rollout.
    fn train(
        &mut self,
        mut agent: FloorplanAgent,
        circuits: &[Circuit],
        config: &TrainConfig,
        request: &mut u64,
    ) -> Result<(FloorplanAgent, Vec<EpochStats>), String> {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut schedule = HclSchedule::new(circuits.to_vec(), config.episodes_per_circuit);
        schedule.p_circuit = config.p_circuit;
        schedule.p_constraint = config.p_constraint;
        let ppo = &config.agent.ppo;
        let mut trainer = PpoTrainer::new(ppo.clone());
        let mut buffer = RolloutBuffer::new(ppo.gamma, ppo.gae_lambda);
        let mut history = Vec::new();
        while !schedule.is_finished() {
            buffer.clear();
            let mut rewards = Vec::new();
            let mut completions = 0usize;
            let stage = schedule.current_stage();
            let stage_circuit = schedule.circuits()[stage].name.clone();
            let round = self.tr.start("train.round", None, *request);
            while rewards.len() < config.episodes_per_update && !schedule.is_finished() {
                let Some(circuit) = schedule.next_episode(&mut rng) else {
                    break;
                };
                let mut env = FloorplanEnv::new(circuit);
                let span = self.tr.start("request", Some(round), *request);
                let summary = self.episode(
                    &mut agent,
                    &mut env,
                    true,
                    Some(&mut buffer),
                    &mut rng,
                    span,
                    *request,
                );
                self.tr.end(span);
                self.probe_layout(env.circuit(), round, *request)?;
                rewards.push(summary.total_reward);
                completions += usize::from(summary.termination == Termination::Completed);
                *request += 1;
            }
            if buffer.is_empty() {
                self.tr.end(round);
                break;
            }
            let stats = self.tr.time("rl.ppo_update", Some(round), *request, || {
                trainer.update(agent.policy_mut(), &buffer, &mut rng)
            });
            self.c.ppo_samples += buffer.len() * ppo.epochs;
            self.tr.end(round);
            let n = rewards.len().max(1) as f64;
            history.push(EpochStats {
                epoch: history.len(),
                stage,
                circuit: stage_circuit,
                episode_reward_mean: rewards.iter().sum::<f64>() / n,
                approx_kl: stats.approx_kl as f64,
                completion_rate: completions as f64 / n,
            });
        }
        Ok((agent, history))
    }

    /// `LayoutPipeline::run` with the agent: the replayed floorplan stage,
    /// `complete_layout`, then the layout probes. Returns the layout key.
    fn layout(
        &mut self,
        agent: &mut FloorplanAgent,
        circuit: &Circuit,
        id: u64,
    ) -> Result<String, String> {
        let request = self.tr.start("request", None, id);
        let stage = self.tr.start("core.floorplan", Some(request), id);
        let solved = self.solve(agent, circuit, stage, id);
        self.tr.end(stage);
        let layout = self
            .tr
            .time("route.complete_layout", Some(request), id, || {
                complete_layout(circuit, &solved.floorplan, &ProceduralConfig::default())
            });
        self.tr.end(request);
        self.c.unrouted_nets += layout.routing.incomplete_nets();
        self.probe_layout(circuit, request, id)?;
        Ok(layout_key(
            &solved.floorplan,
            solved.reward,
            layout.wirelength_um,
        ))
    }

    /// Runs `StateMasks::build` and the public mask functions on every
    /// decision state the replay visited since the last probe, and checks
    /// that the rebuilt masks equal the observation's.
    fn probe_layout(
        &mut self,
        circuit: &Circuit,
        parent: SpanId,
        request: u64,
    ) -> Result<(), String> {
        let started = Instant::now();
        let sets = shape_sets(circuit);
        let at = Some(parent);
        for s in std::mem::take(&mut self.states) {
            let shapes = &sets[s.block.index()];
            let reference = shapes.shape(shapes.most_square());
            let built = self.tr.time("layout.masks_build", at, request, || {
                StateMasks::build(circuit, &s.floorplan, s.block, shapes)
            });
            if masks_hash(&built) != s.masks {
                return Err(format!(
                    "{}: StateMasks::build differs from env.observe",
                    circuit.name
                ));
            }
            self.tr.time("layout.wire_mask", at, request, || {
                std::hint::black_box(wire_mask(circuit, &s.floorplan, s.block, &reference))
            });
            self.tr.time("layout.positional_masks", at, request, || {
                std::hint::black_box(positional_masks(circuit, &s.floorplan, s.block, shapes))
            });
            self.tr.time("layout.dead_space_mask", at, request, || {
                std::hint::black_box(dead_space_mask(circuit, &s.floorplan, s.block, &reference))
            });
        }
        self.probe_s += started.elapsed().as_secs_f64();
        Ok(())
    }
}

/// A pipeline run places every block without overlap and leaves no net
/// unrouted.
fn check_layout(circuit: &Circuit, r: &PipelineResult) -> Result<(), String> {
    check_floorplan(circuit, &r.floorplan, &circuit.name, true)?;
    match r.layout.routing.incomplete_nets() {
        0 => Ok(()),
        n => Err(format!("{}: {n} nets left unrouted", circuit.name)),
    }
}

/// One curriculum's outputs: its Fig. 6 history, a hash of the trained
/// weights, and the trained agent's zero-shot pipeline runs.
struct Trained {
    history: Vec<EpochStats>,
    params: u64,
    layouts: Vec<(Circuit, PipelineResult)>,
}

fn trained_key(t: &Trained) -> String {
    let layouts: Vec<String> = t.layouts.iter().map(|(_, r)| pipeline_key(r)).collect();
    format!("{:?} {:x} {layouts:?}", t.history, t.params)
}

pub fn curriculum_train(
    args: &Args,
    tr: Option<&mut Tracer>,
    c: &mut Counters,
) -> Result<Run, String> {
    let configs = train_configs(args.seed);
    assert_eq!(
        configs[0].agent.ablation,
        AblationFlags::default(),
        "the replay feeds every mask"
    );
    let episodes_per_curriculum = generators::training_set().len() * EPISODES_PER_CIRCUIT;
    // train_agent returns no floorplans, so each trained agent lays out the
    // constraint-stripped Table I circuits zero-shot through LayoutPipeline,
    // untimed. This is also where this workload exercises afp-core and
    // afp-route.
    let mut setup = Setup::new(|| {
        (
            generators::training_set(),
            evaluation_inputs(),
            configs
                .iter()
                .map(|config| FloorplanAgent::new(config.agent.clone()))
                .collect::<Vec<_>>(),
        )
    });
    let (circuits, evaluation_set, agents) = setup.slice();
    let mut first_agents = Some(agents);
    let mut first = FirstPass::default();
    let seconds = if tr.is_some() { 0.0 } else { args.seconds };
    let (wall, passes) = run_passes(seconds, &mut setup, |k| {
        let agents = first_agents.take().unwrap_or_else(|| {
            configs
                .iter()
                .map(|config| FloorplanAgent::new(config.agent.clone()))
                .collect()
        });
        let mut timed = 0.0;
        let mut results = Vec::new();
        for (config, agent) in configs.iter().zip(agents) {
            let started = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| train_agent(agent, &circuits, config)));
            timed += started.elapsed().as_secs_f64();
            results.push(result.ok().map(|r| {
                let params = params_hash(&r.agent);
                let mut pipeline = LayoutPipeline::with_agent(r.agent);
                Trained {
                    params,
                    layouts: evaluation_set
                        .iter()
                        .map(|e| (e.clone(), pipeline.run(e)))
                        .collect(),
                    history: r.history,
                }
            }));
        }
        first.absorb(k, results, trained_key, "curriculum_train")?;
        Ok(timed)
    })?;
    let mut evaluation = Quality::default();
    let (mut reward_sum, mut completion_sum, mut updates) = (0.0, 0.0, 0usize);
    for t in first.results.iter().flatten() {
        for (circuit, r) in &t.layouts {
            check_layout(circuit, r)?;
            evaluation.add(
                circuit,
                &r.floorplan,
                r.floorplan_reward,
                &r.floorplan_metrics,
            );
        }
        for h in &t.history {
            updates += 1;
            reward_sum += h.episode_reward_mean;
            completion_sum += h.completion_rate;
        }
    }
    let requests = passes * configs.len() * episodes_per_curriculum;
    let failed = first.failed * episodes_per_curriculum as u64;

    if let Some(tr) = tr {
        c.untraced_rps = requests as f64 / wall;
        let mut replay = Replay::new(tr, c);
        let mut request = 0u64;
        let started = Instant::now();
        for (config, reference) in configs.iter().zip(&first.results) {
            let agent = replay.fresh_agent(&config.agent);
            let (mut agent, history) = replay.train(agent, &circuits, config, &mut request)?;
            let same = reference.as_ref().is_some_and(|r| {
                format!("{:?}", r.history) == format!("{history:?}")
                    && r.params == params_hash(&agent)
            });
            if !same {
                return Err(format!(
                    "curriculum seed {}: traced replay differs from train_agent",
                    config.seed
                ));
            }
            // The zero-shot evaluation is untimed, so it stays out of the
            // traced request rate as well.
            let probes_before = replay.probe_s;
            let evaluation_started = Instant::now();
            for (i, circuit) in evaluation_set.iter().enumerate() {
                let id = request + i as u64;
                let key = replay.layout(&mut agent, circuit, id)?;
                let expected = reference.as_ref().map(|r| pipeline_key(&r.layouts[i].1));
                if expected.as_ref() != Some(&key) {
                    return Err(format!(
                        "{}: traced replay differs from LayoutPipeline::run",
                        circuit.name
                    ));
                }
            }
            replay.probe_s = probes_before + evaluation_started.elapsed().as_secs_f64();
        }
        let traced_wall = started.elapsed().as_secs_f64() - replay.probe_s;
        c.traced_rps = request as f64 / traced_wall;
        return Ok(Run::layers(request, failed));
    }
    // Every update holds the same number of episodes, so the mean of the
    // per-update means is the mean over episodes.
    assert_eq!(episodes_per_curriculum % configs[0].episodes_per_update, 0);
    let updates = updates.max(1) as f64;
    let quality = QualityMeans {
        reward: reward_sum / updates,
        completion_rate: completion_sum / updates,
        ..evaluation.means()
    };
    // train_agent has no per-episode clock, and an episode's PPO update is
    // shared with the rest of its batch, so the one latency figure is the
    // mean episode time: both percentiles equal 1000 / requests_per_s.
    Ok(Run::end_to_end(
        &EndToEnd {
            setup_s: setup.seconds(),
            requests,
            wall_s: wall,
            latencies_s: vec![wall / requests as f64],
            quality,
        },
        failed,
    ))
}
